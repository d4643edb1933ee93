"""Staged tensor contractions against their literal einsum formulas.

The package evaluates its pointwise contractions as batched matrix products.
Each test here keeps the literal einsum formula as the reference and checks
the staged kernel against it on random, well-conditioned jets over small
grids with m in {2, 3} parameter axes and N in {3, 4} ambient components.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from laguerre import fd, hypersurface, minimality, patches

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
    frame = np.eye(m, N)
    dx = frame + 0.2 * rng.standard_normal(shape + (m, N))
    d2x = rng.standard_normal(shape + (m, m, N))
    d2x = 0.5 * (d2x + np.swapaxes(d2x, -2, -3))
    d3x = rng.standard_normal(shape + (m, m, m, N))
    xi = rng.standard_normal(shape + (N,))
    return rng.standard_normal(shape + (N,)), dx, d2x, d3x, xi


def metric_field(rng, m, shape):
    """Symmetric positive definite field, well away from singular."""
    a = 0.2 * rng.standard_normal(shape + (m, m))
    return np.eye(m) + a @ np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# Literal formulas
# ---------------------------------------------------------------------------

def xi_jets_literal(x, dx, d2x, d3x, xi, form):
    I = np.einsum("...ai,...bi,i->...ab", dx, dx, form)
    II = np.einsum("...abi,...i,i->...ab", d2x, xi, form)
    Iinv = np.linalg.inv(I)
    S = np.einsum("...ga,...ab->...gb", Iinv, II)
    dxi = -np.einsum("...gb,...gi->...bi", S, dx)
    dI = (
        np.einsum("...dai,...bi,i->...dab", d2x, dx, form)
        + np.einsum("...ai,...dbi,i->...dab", dx, d2x, form)
    )
    dII = (
        np.einsum("...dabi,...i,i->...dab", d3x, xi, form)
        + np.einsum("...abi,...di,i->...dab", d2x, dxi, form)
    )
    dS = np.einsum("...ga,...dab->...dgb", Iinv, dII) - np.einsum(
        "...ge,...def,...fa,...ab->...dgb", Iinv, dI, Iinv, II
    )
    d2xi = -np.einsum("...dgb,...gi->...dbi", dS, dx) - np.einsum(
        "...gb,...dgi->...dbi", S, d2x
    )
    return dxi, d2xi


def christoffel_literal(g, ginv, ngrid, hs, periodic):
    dg = fd.gradient(g, ngrid, hs, periodic)
    low = 0.5 * (np.moveaxis(dg, ngrid, ngrid + 1) + np.moveaxis(dg, ngrid, ngrid + 2) - dg)
    return np.einsum("...ec,...cab->...eab", ginv, low)


def riemann_literal(g, Gamma, ngrid, hs, periodic):
    dG = fd.gradient(Gamma, ngrid, hs, periodic)
    up = (
        np.einsum("...adbc->...dcab", dG)
        - np.einsum("...bdac->...dcab", dG)
        + np.einsum("...dae,...ebc->...dcab", Gamma, Gamma)
        - np.einsum("...dbe,...eac->...dcab", Gamma, Gamma)
    )
    return np.einsum("...de,...ecab->...abdc", g, up)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(grids())
def test_xi_jets_from_shape(case):
    rng, m, N, shape, periodic, space = case
    x, dx, d2x, d3x, xi = jets(rng, m, N, shape)
    form = patches.ambient_form_diag(space, N)
    axes = patches.GridAxes(tuple("uvw"[:m]), (0.0,) * m, (1.0,) * m, shape, periodic)
    patch = patches.SurfacePatch(space=space, n=N, axes=axes, x=x, dx=dx, d2x=d2x, xi=xi,
                                 normal_jets=patches.shape_normal_jets(lambda: d3x))
    ref = xi_jets_literal(x, dx, d2x, d3x, xi, form)
    assert_close(patch.dxi, ref[0])
    assert_close(patch.d2xi, ref[1])


@PROPERTY
@given(grids())
def test_fundamental_forms(case):
    rng, m, N, shape, periodic, space = case
    x, dx, d2x, d3x, xi = jets(rng, m, N, shape)
    axes = patches.GridAxes(tuple("uvw"[:m]), (0.0,) * m, (1.0,) * m, shape, periodic)
    patch = patches.SurfacePatch(space=space, n=N, axes=axes, x=x, dx=dx, d2x=d2x, xi=xi,
                                 normal_jets=patches.given_normal_jets(dx, d2x))
    form = patches.ambient_form_diag(space, N)
    assert_close(patches.first_fundamental(patch),
                 np.einsum("...ai,...bi,i->...ab", dx, dx, form))
    assert_close(patches.second_fundamental(patch),
                 np.einsum("...abi,...i,i->...ab", d2x, xi, form))


@PROPERTY
@given(grids(), st.integers(0, 3))
def test_component_max_abs(case, ncomp):
    rng, m, _, shape, _, _ = case
    f = rng.standard_normal(shape + (m,) * ncomp)
    f[(0,) * f.ndim] = np.nan
    ref = np.abs(f)
    while ref.ndim > m:
        ref = ref.max(axis=-1)
    got = fd.component_max_abs(f, m)
    assert np.array_equal(got, ref, equal_nan=True)


@PROPERTY
@given(grids())
def test_metric_pairing(case):
    rng, m, _, shape, _, _ = case
    ginv = fd.grid_inv(metric_field(rng, m, shape))
    B = rng.standard_normal(shape + (m, m))
    L = rng.standard_normal(shape + (m, m))
    for P, Q in ((B, B), (L, B)):
        assert_close(fd.metric_pairing(P, Q, ginv),
                     np.einsum("...ab,...cd,...ac,...bd->...", P, Q, ginv, ginv))


@PROPERTY
@given(grids())
def test_gauss_rhs_and_double_divergence(case):
    rng, m, _, shape, _, _ = case
    g = metric_field(rng, m, shape)
    ginv = fd.grid_inv(g)
    L = rng.standard_normal(shape + (m, m))
    ref = (
        np.einsum("...bc,...ad->...abcd", L, g)
        + np.einsum("...ad,...bc->...abcd", L, g)
        - np.einsum("...ac,...bd->...abcd", L, g)
        - np.einsum("...bd,...ac->...abcd", L, g)
    )
    assert_close(hypersurface.gauss_rhs(L, g), ref)
    DDB = rng.standard_normal(shape + (m,) * 4)
    assert_close(minimality.double_divergence(DDB, ginv),
                 np.einsum("...ca,...db,...dcab->...", ginv, ginv, DDB))


@PROPERTY
@given(grids())
def test_fd_contractions(case):
    rng, m, _, shape, periodic, _ = case
    hs = tuple(0.1 + 0.05 * i for i in range(m))
    g = metric_field(rng, m, shape)
    ginv = fd.grid_inv(g)

    Gamma = fd.christoffel(g, m, hs, periodic, ginv=ginv)
    assert_close(Gamma, christoffel_literal(g, ginv, m, hs, periodic))

    C = rng.standard_normal(shape + (m,))
    assert_close(fd.cov_d_covector(C, Gamma, m, hs, periodic),
                 fd.gradient(C, m, hs, periodic) - np.einsum("...eca,...e->...ca", Gamma, C))

    T = rng.standard_normal(shape + (m, m))
    assert_close(
        fd.cov_d_tensor2(T, Gamma, m, hs, periodic),
        fd.gradient(T, m, hs, periodic)
        - np.einsum("...eca,...eb->...cab", Gamma, T)
        - np.einsum("...ecb,...ae->...cab", Gamma, T),
    )

    U = rng.standard_normal(shape + (m, m, m))
    assert_close(
        fd.cov_d_tensor3(U, Gamma, m, hs, periodic),
        fd.gradient(U, m, hs, periodic)
        - np.einsum("...edc,...eab->...dcab", Gamma, U)
        - np.einsum("...eda,...ceb->...dcab", Gamma, U)
        - np.einsum("...edb,...cae->...dcab", Gamma, U),
    )

    riem = fd.riemann_tensor(g, Gamma, m, hs, periodic)
    assert_close(riem, riemann_literal(g, Gamma, m, hs, periodic))
    assert_close(fd.ricci_tensor(riem, ginv), np.einsum("...bd,...abcd->...ac", ginv, riem))

    f = rng.standard_normal(shape + (2,))
    sqrt_det = np.sqrt(np.linalg.det(g))
    df = fd.gradient(f, m, hs, periodic)
    flux = sqrt_det[..., None, None] * np.einsum("...ab,...bk->...ak", ginv, df)
    div = sum(fd.diff(np.take(flux, a, axis=m), a, hs[a], periodic[a]) for a in range(m))
    assert_close(fd.laplace_beltrami(f, m, ginv, sqrt_det, hs, periodic),
                 div / sqrt_det[..., None])

    sym = rng.standard_normal(shape + (m, m))
    endo = ginv @ (sym + np.swapaxes(sym, -1, -2))
    metric_endo = np.einsum("...ab,...bc->...ac", g, endo)
    L = np.linalg.cholesky(g)
    half = np.linalg.solve(L, metric_endo)
    full = np.linalg.solve(L, np.swapaxes(half, -1, -2))
    ref = np.linalg.eigvalsh(0.5 * (full + np.swapaxes(full, -1, -2)))
    assert_close(fd.selfadjoint_eigvals(endo, g), ref)
