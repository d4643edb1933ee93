import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import component_leading, diff, grid_leading, spaced_grid, whole_grid_eigvalsh
from laguerre import fd
from laguerre.errors import InsufficientInteriorError, UsageError


def derivative_1d(f, h, periodic, order):
    """The gradient of a field on a one-axis grid of step h."""
    count = len(f)
    grid = fd.GridAxes(("u",), (0.0,), (h * (count if periodic else count - 1),), (count,),
                       (periodic,), order)
    return fd.gradient(f, grid)[0]


def test_diff_periodic_spectral_field():
    n = 64
    h = 2 * np.pi / n
    t = np.arange(n) * h
    f = np.sin(3 * t)
    df = derivative_1d(f, h, periodic=True, order=4)
    err4 = np.abs(df - 3 * np.cos(3 * t)).max()
    df2 = derivative_1d(f, h, periodic=True, order=2)
    err2 = np.abs(df2 - 3 * np.cos(3 * t)).max()
    assert err4 < 1e-3 and err2 > 10 * err4  # 4th order beats 2nd


def test_diff_convergence_order():
    def err(n, order):
        h = 1.0 / (n - 1)
        t = np.linspace(0, 1, n)
        f = np.exp(t) * np.sin(5 * t)
        exact = np.exp(t) * (np.sin(5 * t) + 5 * np.cos(5 * t))
        d = derivative_1d(f, h, periodic=False, order=order)
        return np.max(np.abs(np.subtract(*fd.crop(1, d, exact))))

    r4 = err(101, 4) / err(201, 4)
    r2 = err(101, 2) / err(201, 2)
    assert r4 > 12  # ~16 for 4th order
    assert 3 < r2 < 6  # ~4 for 2nd order


def test_diff_nan_margins():
    # A bounded axis keeps only its interior, the count - 2r points where the
    # stencil has all its samples: no NaN margin is left.
    f = np.arange(20.0)
    for order, r in fd.RADIUS.items():
        d = derivative_1d(f, 1.0, periodic=False, order=order)
        assert d.shape == (20 - 2 * r,)
        assert np.array_equal(d, np.ones(20 - 2 * r))


def test_gradient_shape_and_axis_position():
    f = np.zeros((3, 8, 10))
    g = fd.gradient(f, spaced_grid((8, 10), (0.1, 0.1), (True, True)))
    assert g.shape == (2, 3, 8, 10)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(counts=st.lists(st.integers(6, 9), min_size=1, max_size=3),
       periodic=st.lists(st.booleans(), min_size=3, max_size=3),
       ncomp=st.integers(0, 2), order=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 32 - 1))
def test_gradient_is_diff_per_axis(counts, periodic, ncomp, order, seed):
    """The in-place gradient equals the stencil of each grid axis, stacked
    along a leading direction axis, bit for bit."""
    m = len(counts)
    grid = fd.GridAxes(tuple("uvw"[:m]), (0.0,) * m, tuple(0.5 + i for i in range(m)),
                       tuple(counts), tuple(periodic[:m]), order)
    f = np.random.default_rng(seed).standard_normal((2,) * ncomp + tuple(counts))
    parts = [diff(f, ncomp + a, h, per, order)
             for a, (h, per) in enumerate(zip(grid.spacings, grid.periodic))]
    assert np.array_equal(fd.gradient(f, grid), np.stack(fd.crop(m, *parts)))


# The NaN-padded stencil the windowed kernels replaced, and the kernels on
# it, as they were: every field covers the whole grid, NaN where a stencil
# lacked samples.  Each windowed kernel must equal the window of its
# reference bit for bit.

def _central_nan_padded(f, axis, h, periodic, order):
    r = fd.RADIUS[order]
    width = [(r, r) if i == axis else (0, 0) for i in range(f.ndim)]
    padded = (np.pad(f, width, mode="wrap") if periodic
              else np.pad(f, width, constant_values=np.nan))
    count = f.shape[axis]
    lead = (slice(None),) * axis
    s = lambda k: padded[lead + (slice(r + k, r + k + count),)]
    if order == 2:
        return np.divide(s(1) - s(-1), 2.0 * h)
    d = s(-2) - 8.0 * s(-1)
    d += 8.0 * s(1)
    d -= s(2)
    return np.divide(d, 12.0 * h)


def gradient_ref(f, grid):
    ncomp = f.ndim - grid.ndim
    return np.stack([_central_nan_padded(f, ncomp + axis, h, per, grid.order)
                     for axis, (h, per) in enumerate(zip(grid.spacings, grid.periodic))])


def christoffel_ref(g, grid, ginv):
    dg = gradient_ref(g, grid)
    low = 0.5 * ((np.swapaxes(dg, 0, 1) + dg.transpose(1, 2, 0, *range(3, dg.ndim))) - dg)
    return np.einsum("ec...,cab...->eab...", ginv, low)


def cov_d_ref(T, Gamma, grid):
    rank = T.ndim - grid.ndim
    out = gradient_ref(T, grid)
    slots = "abc"[:rank]
    for i, a in enumerate(slots):
        out -= np.einsum(f"ez{a}...,{slots[:i]}e{slots[i + 1:]}...->z{slots}...", Gamma, T)
    return out


def laplace_beltrami_ref(f, ginv, sqrt_det, grid):
    ngrid = grid.ndim
    df = gradient_ref(f, grid)
    return sum(_central_nan_padded(sqrt_det * sum(ginv[a, b] * df[b] for b in range(ngrid)),
                                   f.ndim - ngrid + a, h, per, grid.order)
               for a, (h, per) in enumerate(zip(grid.spacings, grid.periodic))) / sqrt_det


def riemann_ref(g, Gamma, grid):
    """The curvature on its derivative pairs in the pair arithmetic of
    ``fd.riemann_tensor``, each derivative taken on the NaN-padded stencil."""
    h, per = grid.spacings, grid.periodic
    d = lambda f, axis: _central_nan_padded(f, 2 + axis, h[axis], per[axis], grid.order)
    out = []
    for a, b in fd.derivative_pairs(len(g)):
        up = (((d(Gamma[:, b], a) - d(Gamma[:, a], b))
               + np.einsum("de...,ec...->dc...", Gamma[:, a], Gamma[:, b]))
              - np.einsum("de...,ec...->dc...", Gamma[:, b], Gamma[:, a]))
        out.append(np.einsum("xd...,dy...->xy...", g, up))
    return np.stack(out) if out else np.empty((0,) + g.shape)


def metric_from(P):
    """The metric 1 + 0.1 P P^T of a stack of m vectors P (m, k, *G)."""
    g = 0.1 * np.einsum("ai...,bi...->ab...", P, P)
    g[np.diag_indices(len(g))] += 1.0
    return g


@st.composite
def window_cases(draw):
    """(grid, rng): m = 1-3 axes, each periodic or bounded, with room on a
    bounded axis for the three cascade levels the deepest kernel takes."""
    m = draw(st.integers(1, 3))
    order = draw(st.sampled_from([2, 4]))
    r = fd.RADIUS[order]
    periodic = tuple(draw(st.booleans()) for _ in range(m))
    counts = tuple(draw(st.integers(6 * r + 1, 6 * r + 3)) for _ in range(m))
    grid = fd.GridAxes(tuple("uvw"[:m]), (0.0,) * m, tuple(0.5 + 0.25 * i for i in range(m)),
                       counts, periodic, order)
    return grid, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


# Time budget: about 1 s of tier-1 time on one core (40 examples).
@settings(max_examples=40, derandomize=True, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(window_cases())
def test_windowed_kernels_are_windows_of_the_nan_padded_kernels(case):
    grid, rng = case
    m, r = grid.ndim, fd.RADIUS[grid.order]

    def check(got, ref, levels):
        expected = tuple(0 if per else levels * r for per in grid.periodic)
        assert fd.margins(got, grid) == expected
        window = (Ellipsis,) + tuple(slice(k, c - k) for k, c in zip(expected, grid.counts))
        assert np.array_equal(got, ref[window])

    # A metric one stencil level deep, as g is in the pipeline.
    X = rng.standard_normal((m + 1,) + grid.shape)
    P, P_ref = fd.gradient(X, grid), gradient_ref(X, grid)
    check(P, P_ref, 1)
    g, g_ref = metric_from(P), metric_from(P_ref)
    ginv, ginv_ref = fd.grid_inv(g), fd.grid_inv(g_ref)
    sqrt_det, sqrt_det_ref = (np.sqrt(fd.grid_det(q)) for q in (g, g_ref))

    Gamma, Gamma_ref = fd.christoffel(g, grid, ginv), christoffel_ref(g_ref, grid, ginv_ref)
    check(Gamma, Gamma_ref, 2)
    check(fd.riemann_tensor(g, Gamma, grid), riemann_ref(g_ref, Gamma_ref, grid), 3)

    f = rng.standard_normal((2,) + grid.shape)
    check(fd.laplace_beltrami(fd.gradient(f, grid), ginv, sqrt_det, grid),
          laplace_beltrami_ref(f, ginv_ref, sqrt_det_ref, grid), 2)

    # cov_d of a whole-grid covector, of a 2-tensor one level deep and of
    # the 3-tensor that results, two levels deep.
    C = rng.standard_normal((m,) + grid.shape)
    check(fd.cov_d(C, Gamma, grid), cov_d_ref(C, Gamma_ref, grid), 2)
    V = rng.standard_normal((m,) + grid.shape)
    T, T_ref = fd.gradient(V, grid), gradient_ref(V, grid)
    DT, DT_ref = fd.cov_d(T, Gamma, grid), cov_d_ref(T_ref, Gamma_ref, grid)
    check(DT, DT_ref, 2)
    check(fd.cov_d(DT, Gamma, grid), cov_d_ref(DT_ref, Gamma_ref, grid), 3)


# Time budget: about 0.2 s of tier-1 time on one core (60 examples).
@settings(max_examples=60, derandomize=True, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(window_cases(), st.integers(0, 2),
       st.sampled_from(["1", "7", "slab - 1", "slab", "slab + 1"]))
def test_blocked_stencil_is_the_reference_at_every_block_size(case, ncomp, block):
    """At block sizes that make the kernel recurse towards the stencil's
    axis (1, 7, one slab - 1), split a leading axis into ragged blocks (7)
    or take whole slabs (one slab, one slab + 1), every kernel reads what
    the reference stencils read, bit for bit, also on a cropped input and
    into a given output."""
    grid, rng = case
    m, r = grid.ndim, fd.RADIUS[grid.order]
    # A (*K, *G) field cropped by one point at both ends of every axis: a
    # view that is not contiguous.
    f = rng.standard_normal((2,) * ncomp + tuple(c + 2 for c in grid.shape))
    f = f[(Ellipsis,) + (slice(1, -1),) * m]
    slab = math.prod(f.shape[1:])
    size = {"1": 1, "7": 7, "slab - 1": slab - 1, "slab": slab, "slab + 1": slab + 1}[block]
    hs, per = grid.spacings, grid.periodic
    with mock.patch.object(fd, "STENCIL_BLOCK", size):
        parts = [diff(f, ncomp + a, hs[a], per[a], grid.order) for a in range(m)]
        assert np.array_equal(fd.gradient(f, grid), np.stack(fd.crop(m, *parts)))
        for a, part in enumerate(parts):
            out = np.full(part.shape[::-1], np.nan).T     # strided, not contiguous
            fd._central(f, ncomp + a, hs[a], per[a], grid.order, out=out)
            assert np.array_equal(out, part)

        X = rng.standard_normal((m + 1,) + grid.shape)
        g, g_ref = metric_from(fd.gradient(X, grid)), metric_from(gradient_ref(X, grid))
        ginv, ginv_ref = fd.grid_inv(g), fd.grid_inv(g_ref)
        sqrt_det, sqrt_det_ref = (np.sqrt(fd.grid_det(q)) for q in (g, g_ref))
        Gamma, Gamma_ref = fd.christoffel(g, grid, ginv), christoffel_ref(g_ref, grid, ginv_ref)
        pairs = [(fd.riemann_tensor(g, Gamma, grid), riemann_ref(g_ref, Gamma_ref, grid)),
                 (fd.laplace_beltrami(fd.gradient(f, grid), ginv, sqrt_det, grid),
                  laplace_beltrami_ref(f, ginv_ref, sqrt_det_ref, grid))]
    for got, ref in pairs:
        window = (Ellipsis,) + tuple(slice(k, c - k) for k, c in
                                     zip(fd.margins(got, grid), grid.counts))
        assert np.array_equal(got, ref[window])


def test_blocked_stencil_at_the_real_block_size():
    # One (6, 40, 200) slab of the field holds more elements than a block, so
    # the kernel takes each on its own, where 4 of the 6 slabs of 8,000 fit
    # in a block and the last block holds 2.
    grid = spaced_grid((40, 200), (0.05, 0.03), (False, True))
    f = np.random.default_rng(7).standard_normal((2, 6, 40, 200))
    assert math.prod(f.shape[1:]) > fd.STENCIL_BLOCK > 4 * math.prod(f.shape[2:])
    parts = [diff(f, 2 + a, h, per, 4)
             for a, (h, per) in enumerate(zip(grid.spacings, grid.periodic))]
    assert np.array_equal(fd.gradient(f, grid), np.stack(fd.crop(2, *parts)))


def test_grid_axes_rejects_unsupported_order():
    fd.GridAxes(("u",), (0.0,), (1.0,), (8,), (False,), order=2)
    with pytest.raises(UsageError):
        fd.GridAxes(("u",), (0.0,), (1.0,), (8,), (False,), order=3)


def test_require_interior():
    fd.require_interior(spaced_grid((65, 64), (0.1, 0.1), (False, True)), 4)
    with pytest.raises(InsufficientInteriorError, match="axis 'u' with 10 points"):
        fd.require_interior(spaced_grid((10, 64), (0.1, 0.1), (False, True)), 4)


@pytest.mark.parametrize("periodic", [False, True])
def test_inset_grid_is_a_window_of_the_grid(periodic):
    grid = fd.GridAxes(("u", "v"), (-1.0, 0.0), (1.0, 2 * np.pi), (17, 16), (False, periodic), 4)
    window = grid.inset(4)
    assert window.counts == (9, 16 if periodic else 8)
    assert window.spacings == pytest.approx(grid.spacings, rel=1e-15)
    for got, full in zip(window.coords(), grid.coords()):
        cut = (len(full) - len(got)) // 2
        assert np.abs(got - full[cut:cut + len(got)]).max() <= 1e-15


@pytest.mark.parametrize("m", [2, 3, 4])  # m = 4: the blocks of a hypersurface in R^5
def test_batched_linear_algebra(m):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5, m, m))
    M = M @ np.swapaxes(M, -1, -2) + 3 * np.eye(m)
    Mc = component_leading(M, 2)
    inv = fd.grid_inv(Mc)
    assert inv.shape == Mc.shape
    assert np.abs(np.einsum("ab...,bc...->...ac", Mc, inv) - np.eye(m)).max() < 1e-10
    ch = fd.grid_cholesky(Mc)
    assert np.abs(np.einsum("ab...,cb...->...ac", ch, ch) - M).max() < 1e-10
    det = np.linalg.det(M)
    assert np.abs(fd.grid_det(Mc) - det).max() < 1e-12 * np.abs(det).max()
    eig = fd.grid_eigvalsh(Mc)
    assert eig.shape == (m, 5, 5) and (eig > 0).all()


# The arrays come from a drawn seed, so shrinking cannot simplify a failing
# example; it is skipped to keep a failure fast to report.
PROPERTY = settings(max_examples=30, derandomize=True, deadline=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))


@st.composite
def blocks(draw):
    """(rng, m, grid shape) for small grids of m x m blocks, m <= 5."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5]))
    shape = tuple(draw(st.integers(2, 5)) for _ in range(draw(st.integers(1, 3))))
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), m, shape


def spd_blocks(rng, m, shape, signs=None):
    """Symmetric blocks Q diag(lam) Q^T with |lam| in [0.5, 2]; ``signs``
    (+1/-1, shape + (m,)) sets the sign of each eigenvalue."""
    Q, _ = np.linalg.qr(rng.standard_normal(shape + (m, m)))
    lam = rng.uniform(0.5, 2.0, shape + (m,)) * (1 if signs is None else signs)
    return (Q * lam[..., None, :]) @ np.swapaxes(Q, -1, -2)


def assert_rel(got, ref, rel=1e-12):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


def symmetric_blocks(rng, m, shape, kind):
    """Symmetric blocks of one kind of spectrum that is hard for an
    eigensolver: exactly repeated, in pairs split by 1e-9, graded by four
    decades a step, or an already diagonal block or one with a zero
    off-diagonal pair (the rotation's a_pq = 0 case)."""
    lam = {"repeated": [1.0] * 5, "split": [1.0, 1.0 + 1e-9, 2.0, 2.0 + 2e-9, 3.0],
           "graded": [1.0, 1e-4, 1e-8, 1e-12, 1e-16]}.get(kind)
    lam = rng.uniform(0.5, 2.0, shape + (m,)) if lam is None else np.array(lam[:m])
    if kind != "repeated":
        lam = lam * np.where(rng.random(shape + (m,)) < 0.5, -1.0, 1.0)
    if kind == "diagonal":
        return lam[..., None] * np.eye(m)
    Q, _ = np.linalg.qr(rng.standard_normal(shape + (m, m)))
    blocks = (Q * lam[..., None, :]) @ np.swapaxes(Q, -1, -2)
    if kind == "zero pair" and m > 1:
        i, j = rng.choice(m, 2, replace=False)
        blocks[..., i, j] = blocks[..., j, i] = 0.0
    return blocks


SPECTRA = ("repeated", "split", "graded", "diagonal", "zero pair")


def kernel(f, mat, ncomp):
    """A grid kernel of fd applied to (*G, m, m) blocks; output (*G, *C)."""
    return grid_leading(f(component_leading(mat, 2)), ncomp)


def assert_inverse_within_cond(general):
    """The grid inverse of (*G, m, m) blocks against LAPACK's.  The error of
    a closed form or an adjugate grows with the block's condition number
    (up to ~5e5 in the draws of ``blocks``), so the bound is per block and
    scaled by it: over 50,000 blocks of m = 4 and 5 it reads at most
    3.2e-16 cond, and over 2,000 grids of m = 3 at most 3.3e-16 cond."""
    inv, ref = kernel(fd.grid_inv, general, 2), np.linalg.inv(general)
    assert inv.shape == ref.shape
    err = np.abs(inv - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert (err <= 2e-15 * np.linalg.cond(general)).all()


@PROPERTY
@given(blocks())
def test_closed_forms_match_lapack(case):
    rng, m, shape = case
    general = rng.standard_normal(shape + (m, m)) + 2.0 * np.eye(m)
    assert_inverse_within_cond(general)
    assert_rel(kernel(fd.grid_det, general, 0), np.linalg.det(general))
    spd = spd_blocks(rng, m, shape)
    assert_rel(kernel(fd.grid_cholesky, spd, 2), np.linalg.cholesky(spd))
    # Spectra (Jacobi rotations) agree per block to 1e-13 of the block's
    # largest |eigenvalue|, also at overall scales 1e-150 and 1e150.
    for sym in [general + np.swapaxes(general, -1, -2)] + [
            symmetric_blocks(rng, m, shape, kind) for kind in SPECTRA]:
        for scale in (1.0, 1e-150, 1e150):
            got, ref = kernel(fd.grid_eigvalsh, scale * sym, 1), np.linalg.eigvalsh(scale * sym)
            assert got.shape == ref.shape
            assert (np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=-1, keepdims=True)).all()


def test_inverse_bound_scales_with_an_ill_conditioned_block():
    # A draw of the property's kind (seed 1104) whose worst 3 x 3 block has
    # condition number 1.2e4: each block's inverse is within 2.1e-16 cond of
    # its largest entry, while the largest error is 1.05e-12 of the grid's
    # largest |inv|, above a bound of 1e-12 that ignores the conditioning.
    general = np.random.default_rng(1104).standard_normal((5, 5, 3, 3)) + 2.0 * np.eye(3)
    assert 1e4 < np.linalg.cond(general).max() < 2e4
    assert_inverse_within_cond(general)


@st.composite
def nearly_diagonal_blocks(draw):
    """A contiguous (m, m, *G) field of random symmetric blocks,
    m = 2, 3 or 4, at an overall scale, with a drawn share of its points (none,
    some or all) diagonal or within the stopping rule of diagonal."""
    m = draw(st.sampled_from([2, 3, 4]))
    shape = tuple(draw(st.integers(2, 6)) for _ in range(draw(st.integers(1, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    share = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95))
    tiny = draw(st.sampled_from([0.0, 1e-20]))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150]))
    kind = draw(st.sampled_from(("split", "graded", "zero pair")))
    mat = symmetric_blocks(rng, m, shape, kind)
    npoints = math.prod(shape)
    diagonal = np.zeros(npoints, bool)
    diagonal[rng.permutation(npoints)[:round(share * npoints)]] = True
    mat[diagonal.reshape(shape)] *= np.where(np.eye(m, dtype=bool), 1.0, tiny)
    return np.ascontiguousarray(component_leading(scale * mat, 2))


@PROPERTY
@given(nearly_diagonal_blocks())
def test_jacobi_rotates_only_where_an_entry_is_off_the_diagonal(mat):
    # The kernel rotates each pair only at the points above the stopping
    # rule, on copies of the entries: bit for bit the whole-grid rotation
    # (t = 0 at every other point), its input untouched, and within 1e-12 of
    # LAPACK relative to each block's largest |eigenvalue|.
    given_mat = mat.copy()
    got = fd.grid_eigvalsh(mat)
    assert np.array_equal(mat, given_mat)
    assert np.array_equal(got, whole_grid_eigvalsh(mat))
    ref = np.linalg.eigvalsh(grid_leading(mat, 2))
    assert (np.abs(grid_leading(got, 1) - ref)
            <= 1e-12 * np.abs(ref).max(axis=-1, keepdims=True)).all()


@PROPERTY
@given(blocks())
def test_leading_minor_screen_matches_eigvalsh(case):
    rng, m, shape = case
    signs = np.where(rng.random(shape + (m,)) < 0.1, -1.0, 1.0)
    mat = spd_blocks(rng, m, shape, signs)
    eig = np.linalg.eigvalsh(mat)
    idx = fd.nonpositive_index(component_leading(mat, 2))
    if eig.min() > 0:
        assert idx is None
    else:
        assert idx == np.unravel_index(np.argmin(eig[..., 0]), shape)
    with pytest.raises(np.linalg.LinAlgError) if eig.min() <= 0 else nullcontext():
        fd.grid_cholesky(component_leading(mat, 2))


def test_leading_minor_screen_locates_a_nan_block():
    # A NaN minor fails Sylvester's criterion (minor > 0 is False), so a NaN
    # block is located like a block that is not positive definite.
    mat = np.broadcast_to(np.eye(3)[:, :, None, None], (3, 3, 4, 5)).copy()
    mat[1, 1, 2, 3] = np.nan
    assert fd.nonpositive_index(mat) == (2, 3)


@st.composite
def max_abs_fields(draw):
    """(field, ngrid): a random grid field with 0-2 leading component axes,
    holding one of: finite values, a +-inf, or only signed zeros."""
    ngrid = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(ngrid + draw(st.integers(0, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = rng.standard_normal(shape) * rng.lognormal(0.0, 2.0, shape)
    kind = draw(st.sampled_from(["finite", "inf", "zeros"]))
    if kind == "inf":
        f[tuple(int(rng.integers(n)) for n in shape)] = draw(st.sampled_from([np.inf, -np.inf]))
    elif kind == "zeros":
        f = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    return f, ngrid


# Time budget: about 0.5 s of tier-1 time on one core (200 examples).
@settings(max_examples=200, derandomize=True, deadline=None)
@given(max_abs_fields())
def test_max_abs_reductions_match_the_nan_aware_ones(case):
    # max_abs reads what the NaN-aware composition nanmax |f| reads, signed
    # zeros as +0.0, and so does its reduction of the per-point maxima.
    f, ngrid = case
    want = float(np.nanmax(np.abs(f)))
    for got in (fd.max_abs(f), fd.max_abs(fd.component_max_abs(f, ngrid))):
        assert type(got) is float and got == want and np.copysign(1.0, got) == 1.0


def test_max_abs_of_an_empty_field_raises():
    # A field with no points has no largest value: no reduction reads 0.0.
    with pytest.raises(ValueError):
        fd.max_abs(np.zeros((0, 3)))


def test_selfadjoint_eigvals():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((7, 3, 3))
    h = h @ np.swapaxes(h, -1, -2) + 4 * np.eye(3)
    sym = rng.standard_normal((7, 3, 3))
    sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
    endo = np.linalg.solve(h, sym)  # self-adjoint for h by construction
    vals = fd.selfadjoint_eigvals(component_leading(endo, 2), component_leading(h, 2))
    for i in range(7):
        expect = np.sort(np.linalg.eigvals(endo[i]).real)
        assert np.abs(np.sort(vals[:, i]) - expect).max() < 1e-10


def test_christoffel_and_laplacian_on_round_sphere():
    # unit-sphere metric du^2 + sin(u)^2 dv^2 away from the poles
    nu, nv = 80, 64
    u = np.linspace(0.6, np.pi - 0.6, nu)
    hu = u[1] - u[0]
    hv = 2 * np.pi / nv
    v = np.arange(nv) * hv
    U, V = np.meshgrid(u, v, indexing="ij")
    g = np.zeros((2, 2, nu, nv))
    g[0, 0] = 1.0
    g[1, 1] = np.sin(U) ** 2
    ginv = fd.grid_inv(g)
    sqrt_det = np.sqrt(fd.grid_det(g))
    grid = spaced_grid((nu, nv), (hu, hv), (False, True))

    Gamma = fd.christoffel(g, grid, ginv)
    # closed forms: Gamma^u_{vv} = -sin u cos u, Gamma^v_{uv} = cot u
    Gamma, Uw = fd.crop(2, Gamma, U)
    assert fd.max_abs(Gamma[0, 1, 1] + np.sin(Uw) * np.cos(Uw)) < 1e-6
    assert fd.max_abs(Gamma[1, 0, 1] - np.cos(Uw) / np.sin(Uw)) < 1e-6

    # cos(u) is an eigenfunction: Delta cos u = -2 cos u
    f = np.cos(U)
    lap = fd.laplace_beltrami(fd.gradient(f, grid), ginv, sqrt_det, grid)
    assert fd.max_abs(np.add(*fd.crop(2, lap, 2 * np.cos(U)))) < 1e-6

    # curvature: positive on the sphere, sectional = scalar / 2 = 1
    riem = fd.riemann_tensor(g, Gamma, grid)
    ricci = fd.ricci_tensor(*fd.crop(2, riem, ginv))
    scal = fd.scalar_curvature(*fd.crop(2, ricci, ginv))
    assert abs(np.nanmedian(scal) - 2.0) < 1e-5
    riem, g = fd.crop(2, riem, g)
    K = riem[0, 0, 1] / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
    assert fd.max_abs(K - 1.0) < 1e-5


def test_covariant_derivative_of_metric_vanishes():
    nu, nv = 60, 48
    u = np.linspace(0.7, 2.2, nu)
    hu = u[1] - u[0]
    hv = 2 * np.pi / nv
    U = np.meshgrid(u, np.arange(nv) * hv, indexing="ij")[0]
    g = np.zeros((2, 2, nu, nv))
    g[0, 0] = 1.0 + 0.3 * np.sin(U)
    g[1, 1] = np.exp(0.5 * U)
    ginv = fd.grid_inv(g)
    grid = spaced_grid((nu, nv), (hu, hv), (False, True))
    Gamma = fd.christoffel(g, grid, ginv)
    Dg = fd.cov_d_tensor2(g, Gamma, grid)
    assert fd.max_abs(Dg) < 1e-9


def test_integrate_simpson_and_periodic():
    nu, nv = 65, 64
    u = np.linspace(0, 1, nu)
    hu = u[1] - u[0]
    hv = 2 * np.pi / nv
    U, V = np.meshgrid(u, np.arange(nv) * hv, indexing="ij")
    f = np.exp(U) * (1 + 0.5 * np.cos(V))
    grid = spaced_grid((nu, nv), (hu, hv), (False, True))
    val = fd.integrate(f, grid)
    exact = (np.e - 1) * 2 * np.pi
    assert val == pytest.approx(exact, rel=1e-8)
    with pytest.raises(UsageError):
        f2 = f.copy()
        f2[0, 0] = np.nan
        fd.integrate(f2, grid)


@pytest.mark.parametrize("count", [33, 66, 195])
def test_simpson_matches_scipy(count):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    t = np.linspace(0.0, 1.3, count)
    h = t[1] - t[0]
    rows = np.stack([np.exp(t) * np.sin(5 * t), np.cos(3 * t) ** 2, t ** 3 - t])
    ours = fd.simpson(rows, h)
    ref = scipy_integrate.simpson(rows, dx=h, axis=-1)
    assert np.all(np.abs(ours - ref) <= 1e-14 * np.abs(ref))

