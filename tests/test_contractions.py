"""Staged tensor contractions against their literal einsum formulas.

The package evaluates its pointwise contractions on component-leading
fields (component axes first, grid axes last) as sums over a component
axis (grams, contractions with a vector, the metric pairing, the Cholesky
reduction), as forward substitution (the inverse Cholesky factor) or as
einsums of whole component fields (Christoffels, covariant derivatives,
curvature tensors).  Each test here keeps the literal einsum formula, or
LAPACK, as the reference and checks the staged kernel against it on
random, well-conditioned jets over small grids: m in {2, 3} parameter axes
and N in {3, 4} ambient components for the grid kernels, blocks of size
m in {1, 2, 3, 4} for the pointwise ones.  The curvature, formed only on
its derivative pairs a < b, is checked against the literal full tensor
(with its Ricci contraction and the Gauss residual) for m in {1, 2, 3, 4}.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import component_leading, diff, grid_leading, spaced_grid
from laguerre import fd, hypersurface, patches

REL = 1e-12
# The arrays come from a drawn seed, so shrinking cannot simplify a failing
# example; it is skipped to keep a failure fast to report.
PROPERTY = settings(max_examples=20, derandomize=True, deadline=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))


@st.composite
def grids(draw):
    """(rng, m, N, grid shape, periodic flags, signature of the ambient form)."""
    m = draw(st.sampled_from([2, 3]))
    N = draw(st.sampled_from([3, 4]))
    shape = tuple(draw(st.integers(6, 10)) for _ in range(m))
    periodic = tuple(draw(st.booleans()) for _ in range(m))
    space = draw(st.sampled_from(["r3", "r31"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed), m, N, shape, periodic, space


@st.composite
def block_fields(draw):
    """(rng, grid shape, d) for pointwise kernels on blocks and stacks of
    vectors with d components; the block size m is a test parameter."""
    d = draw(st.sampled_from([3, 4, 7]))
    shape = tuple(draw(st.integers(2, 6)) for _ in range(draw(st.integers(1, 3))))
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), shape, d


BLOCK_SIZES = pytest.mark.parametrize("m", [1, 2, 3, 4])


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    if np.isnan(ref).all():
        return
    scale = max(np.nanmax(np.abs(ref)), 1e-300)
    assert np.nanmax(np.abs(got - ref)) <= REL * scale


def jets(rng, m, N, shape):
    """x-jets whose first derivatives stay close to an orthonormal m-frame,
    so that I is well conditioned in either signature."""
    frame = np.eye(m, N).reshape((m, N) + (1,) * len(shape))
    dx = frame + 0.2 * rng.standard_normal((m, N) + shape)
    d2x = rng.standard_normal((m, m, N) + shape)
    d2x = 0.5 * (d2x + np.swapaxes(d2x, 0, 1))
    xi = rng.standard_normal((N,) + shape)
    return rng.standard_normal((N,) + shape), dx, d2x, xi


def metric_field(rng, m, shape):
    """Symmetric positive definite field (m, m, *shape), well away from singular."""
    a = 0.2 * rng.standard_normal((m, m) + shape)
    g = np.einsum("ac...,bc...->ab...", a, a)
    g[np.diag_indices(m)] += 1.0
    return g


# ---------------------------------------------------------------------------
# Literal formulas
# ---------------------------------------------------------------------------

def xi_jet_literal(dx, d2x, xi, form):
    I = np.einsum("ai...,bi...,i->ab...", dx, dx, form)
    II = np.einsum("abi...,i...,i->ab...", d2x, xi, form)
    Iinv = component_leading(np.linalg.inv(grid_leading(I, 2)), 2)
    S = np.einsum("ga...,ab...->gb...", Iinv, II)
    return -np.einsum("gb...,gi...->bi...", S, dx)


def christoffel_literal(g, ginv, grid):
    dg, ginv = fd.crop(grid.ndim, fd.gradient(g, grid), ginv)
    low = 0.5 * (np.einsum("acb...->cab...", dg) + np.einsum("bca...->cab...", dg) - dg)
    return np.einsum("ec...,cab...->eab...", ginv, low)


def riemann_literal(g, Gamma, grid):
    dG, Gamma, g = fd.crop(grid.ndim, fd.gradient(Gamma, grid), Gamma, g)
    up = (
        np.einsum("adbc...->dcab...", dG)
        - np.einsum("bdac...->dcab...", dG)
        + np.einsum("dae...,ebc...->dcab...", Gamma, Gamma)
        - np.einsum("dbe...,eac...->dcab...", Gamma, Gamma)
    )
    return np.einsum("de...,ecab...->abdc...", g, up)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(grids())
def test_xi_jets_from_shape(case):
    # A patch made without dxi forms it on read as -dx o S.
    rng, m, N, shape, periodic, space = case
    x, dx, d2x, xi = jets(rng, m, N, shape)
    form = patches.ambient_form_diag(space, N)
    axes = fd.GridAxes(tuple("uvw"[:m]), (0.0,) * m, (1.0,) * m, shape, periodic, order=4)
    patch = patches.SurfacePatch(space=space, axes=axes, x=x, dx=dx, xi=xi,
                                 II=patches.second_fundamental(d2x, xi, form), jets="analytic")
    assert_close(patch.dxi, xi_jet_literal(dx, d2x, xi, form))


@PROPERTY
@given(grids())
def test_fundamental_forms(case):
    rng, m, N, shape, periodic, space = case
    x, dx, d2x, xi = jets(rng, m, N, shape)
    axes = fd.GridAxes(tuple("uvw"[:m]), (0.0,) * m, (1.0,) * m, shape, periodic, order=4)
    form = patches.ambient_form_diag(space, N)
    II = patches.second_fundamental(d2x, xi, form)
    patch = patches.SurfacePatch(space=space, axes=axes, x=x, dx=dx, xi=xi, II=II, jets="analytic")
    assert_close(patches.first_fundamental(patch),
                 np.einsum("ai...,bi...,i->ab...", dx, dx, form))
    assert_close(II, np.einsum("abi...,i...,i->ab...", d2x, xi, form))


@PROPERTY
@given(grids(), st.integers(0, 3))
def test_component_max_abs(case, ncomp):
    rng, m, _, shape, _, _ = case
    f = rng.standard_normal((m,) * ncomp + shape)
    f[(0,) * f.ndim] = np.nan
    ref = np.abs(f)
    while ref.ndim > m:
        ref = ref.max(axis=0)
    got = fd.component_max_abs(f, m)
    assert np.array_equal(got, ref, equal_nan=True)


@PROPERTY
@given(grids())
def test_metric_pairing(case):
    rng, m, _, shape, _, _ = case
    ginv = fd.grid_inv(metric_field(rng, m, shape))
    B = rng.standard_normal((m, m) + shape)
    L = rng.standard_normal((m, m) + shape)
    for P, Q in ((B, B), (L, B)):
        assert_close(fd.metric_pairing(P, Q, ginv),
                     np.einsum("ab...,cd...,ac...,bd...->...", P, Q, ginv, ginv))


def curvature_case(m, seed, periodic):
    """(rng, g, ginv, the pair curvature, the literal full tensor) of a
    random metric on an order-2 grid of m axes, 6 or 7 points each: room for
    the two cascade levels past g on a bounded axis."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(c) for c in rng.integers(6, 8, size=m))
    grid = fd.GridAxes(tuple("uvwz"[:m]), (0.0,) * m, tuple(0.5 + 0.25 * i for i in range(m)),
                       shape, tuple(periodic[:m]), order=2)
    g = metric_field(rng, m, shape)
    ginv = fd.grid_inv(g)
    Gamma = fd.christoffel(g, grid, ginv)
    return rng, g, ginv, fd.riemann_tensor(g, Gamma, grid), riemann_literal(g, Gamma, grid)


def full_from_pairs(riem, m):
    """The full tensor of a curvature on its derivative pairs: R_ba.. = -R_ab..
    and R_aa.. = 0."""
    full = np.zeros((m,) * 4 + riem.shape[3:])
    for p, (a, b) in enumerate(fd.derivative_pairs(m)):
        full[a, b], full[b, a] = riem[p], -riem[p]
    return full


CURVATURE_AXES = pytest.mark.parametrize("m", [1, 2, 3, 4])   # m = 1 has no pairs


@CURVATURE_AXES
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), periodic=st.lists(st.booleans(), min_size=4, max_size=4))
def test_curvature_on_pairs_is_the_literal_tensor(m, seed, periodic):
    _, g, ginv, riem, literal = curvature_case(m, seed, periodic)
    assert riem.shape[:3] == (m * (m - 1) // 2, m, m)
    assert_close(full_from_pairs(riem, m), literal)
    riem, ginv = fd.crop(m, riem, ginv)
    assert_close(fd.ricci_tensor(riem, ginv), np.einsum("bd...,abcd...->ac...", ginv, literal))


@CURVATURE_AXES
@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), periodic=st.lists(st.booleans(), min_size=4, max_size=4))
def test_gauss_residuals(m, seed, periodic):
    rng, g, _, riem, literal = curvature_case(m, seed, periodic)
    riem, g = fd.crop(m, riem, g)
    L = rng.standard_normal(g.shape)
    ref = literal - (
        np.einsum("bc...,ad...->abcd...", L, g)
        + np.einsum("ad...,bc...->abcd...", L, g)
        - np.einsum("ac...,bd...->abcd...", L, g)
        - np.einsum("bd...,ac...->abcd...", L, g)
    )
    blocks = iter(hypersurface.gauss_residuals(riem, L, g))
    got = np.empty(ref.shape)
    for a, b in fd.derivative_pairs(m):
        got[a, b], got[b, a] = next(blocks), next(blocks)
    for a in range(m):
        got[a, a] = next(blocks)
    assert next(blocks, None) is None
    assert_close(got, ref)


@PROPERTY
@given(grids())
def test_fd_contractions(case):
    rng, m, _, shape, periodic, _ = case
    grid = spaced_grid(shape, tuple(0.1 + 0.05 * i for i in range(m)), periodic)
    g = metric_field(rng, m, shape)
    ginv = fd.grid_inv(g)

    Gamma = fd.christoffel(g, grid, ginv)
    assert_close(Gamma, christoffel_literal(g, ginv, grid))

    C = rng.standard_normal((m,) + shape)
    dC, G, Cw = fd.crop(m, fd.gradient(C, grid), Gamma, C)
    assert_close(fd.cov_d_covector(C, Gamma, grid),
                 dC - np.einsum("eca...,e...->ca...", G, Cw))

    T = rng.standard_normal((m, m) + shape)
    dT, G, Tw = fd.crop(m, fd.gradient(T, grid), Gamma, T)
    assert_close(
        fd.cov_d_tensor2(T, Gamma, grid),
        dT
        - np.einsum("eca...,eb...->cab...", G, Tw)
        - np.einsum("ecb...,ae...->cab...", G, Tw),
    )

    U = rng.standard_normal((m, m, m) + shape)
    dU, G, Uw = fd.crop(m, fd.gradient(U, grid), Gamma, U)
    assert_close(
        fd.cov_d_tensor3(U, Gamma, grid),
        dU
        - np.einsum("edc...,eab...->dcab...", G, Uw)
        - np.einsum("eda...,ceb...->dcab...", G, Uw)
        - np.einsum("edb...,cae...->dcab...", G, Uw),
    )

    f = rng.standard_normal((2,) + shape)
    sqrt_det = np.sqrt(np.linalg.det(grid_leading(g, 2)))
    df, ginv_f, sqrt_det_f = fd.crop(m, fd.gradient(f, grid), ginv, sqrt_det)
    flux = sqrt_det_f * np.einsum("ab...,bk...->ak...", ginv_f, df)
    div = sum(fd.crop(m, *(diff(flux[a], 1 + a, grid.spacings[a], periodic[a], grid.order)
                           for a in range(m))))
    div, sqrt_det_d = fd.crop(m, div, sqrt_det)
    assert_close(fd.laplace_beltrami(fd.gradient(f, grid), ginv, sqrt_det, grid),
                 div / sqrt_det_d)

    sym = rng.standard_normal((m, m) + shape)
    endo = np.einsum("ab...,bc...->ac...", ginv, sym + np.swapaxes(sym, 0, 1))
    metric_endo = grid_leading(np.einsum("ab...,bc...->ac...", g, endo), 2)
    L = np.linalg.cholesky(grid_leading(g, 2))
    half = np.linalg.solve(L, metric_endo)
    full = np.linalg.solve(L, np.swapaxes(half, -1, -2))
    ref = np.linalg.eigvalsh(0.5 * (full + np.swapaxes(full, -1, -2)))
    assert_close(fd.selfadjoint_eigvals(endo, g), component_leading(ref, 1))


@BLOCK_SIZES
@PROPERTY
@given(case=block_fields())
def test_gram_and_contract_last(m, case):
    rng, shape, d = case
    u = rng.standard_normal((m, d) + shape)
    v = rng.standard_normal((m, d) + shape)
    form = rng.choice([-1.0, 1.0, 0.5], d)
    g = fd.gram(u, u, form)
    assert np.array_equal(g, np.swapaxes(g, 0, 1))
    assert_close(g, np.einsum("ai...,bi...,i->ab...", u, u, form))
    assert_close(fd.gram(u, v, form), np.einsum("ai...,bi...,i->ab...", u, v, form))
    w = rng.standard_normal((d,) + shape)
    for ncomp in (1, 2, 3):
        T = rng.standard_normal((m,) * ncomp + (d,) + shape)
        k = "abc"[:ncomp]
        assert_close(fd.contract_last(T, w), np.einsum(f"{k}i...,i...->{k}...", T, w))
        assert_close(fd.contract_last(T, w, form),
                     np.einsum(f"{k}i...,i...,i->{k}...", T, w, form))
    ginv = fd.grid_inv(metric_field(rng, m, shape))
    P, Q = rng.standard_normal((2, m, m) + shape)
    assert_close(fd.metric_pairing(P, Q, ginv),
                 np.einsum("ab...,cd...,ac...,bd...->...", P, Q, ginv, ginv))
    assert_close(fd.trace_product(P, Q), np.einsum("ab...,ab...->...", P, Q))


@BLOCK_SIZES
@PROPERTY
@given(case=block_fields())
def test_inverse_cholesky_and_reduction(m, case):
    rng, shape, _ = case
    g = grid_leading(metric_field(rng, m, shape), 2)
    Linv = np.linalg.inv(np.linalg.cholesky(g))
    got = grid_leading(fd.inverse_cholesky(component_leading(g, 2)), 2)
    assert_close(got, Linv)
    assert np.array_equal(np.triu(got, 1), np.zeros(got.shape))
    sym = rng.standard_normal(shape + (m, m))
    sym = sym + np.swapaxes(sym, -1, -2)
    # selfadjoint_eigvals passes metric @ endo, symmetric up to rounding.
    for Q in (sym, g @ (np.linalg.inv(g) @ sym)):
        full = np.einsum("...ac,...cd,...bd->...ab", Linv, Q, Linv)
        reduced = fd.cholesky_reduce(component_leading(Q, 2), component_leading(got, 2))
        assert np.array_equal(reduced, np.swapaxes(reduced, 0, 1))
        assert_close(grid_leading(reduced, 2), 0.5 * (full + np.swapaxes(full, -1, -2)))
