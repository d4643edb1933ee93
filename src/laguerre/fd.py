"""Finite differences and tensor calculus on rectangular parameter grids.

A ``GridAxes`` describes the grid and carries its stencil: the order (2 or
4) of the central differences every grid-level kernel here takes, fixed
when the grid is built.  Fields are numpy arrays whose leading axes are
the grid axes and whose remaining axes are component axes.

Each field is stored on its window: the part of the grid where it is
defined.  A periodic axis is padded once by the stencil radius with its
wrapped ends, so a derivative keeps every point; on a bounded axis the
stencil is taken only where it has all its samples, so each cascaded
derivative drops the stencil radius from both ends.  A field's margin on
an axis is therefore (grid count - field count) / 2 (``margins``), and a
pointwise kernel runs on its operands cut to their common window
(``crop``).  No field holds a NaN: a sampled patch is built on the
window of its finite-difference jets, so every reduction is a plain
whole-array one (``max_abs``).

Derivative outputs insert the direction axis right after the grid axes:
``gradient`` writes each direction of a (*G, k) field into its slot of one
(*G, m, k) array, and one covariant-derivative rule (``cov_d``) serves
every tensor rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientInteriorError, UsageError

# Stencil radius per derivative application, by order.
RADIUS = {2: 1, 4: 2}


@dataclass(frozen=True)
class GridAxes:
    """Rectangular parameter grid: names, ranges, counts, periodicity and
    the order of its central-difference stencil."""

    names: tuple
    los: tuple
    his: tuple
    counts: tuple
    periodic: tuple
    order: int

    def __post_init__(self):
        m = len(self.names)
        if not (len(self.los) == len(self.his) == len(self.counts) == len(self.periodic) == m):
            raise UsageError("inconsistent grid axis description")
        for count in self.counts:
            if count < 6:
                raise UsageError("need at least 6 samples per axis")
        if self.order not in RADIUS:
            raise UsageError(f"unsupported stencil order {self.order}")

    @property
    def ndim(self) -> int:
        return len(self.names)

    @property
    def shape(self) -> tuple:
        return tuple(self.counts)

    @property
    def spacings(self) -> tuple:
        """Grid steps; periodic axes exclude the right endpoint."""
        return tuple(
            (hi - lo) / (c if p else c - 1)
            for lo, hi, c, p in zip(self.los, self.his, self.counts, self.periodic)
        )

    def coords(self):
        """1-d coordinate arrays, one per axis."""
        return [
            lo + (hi - lo) * np.arange(c) / c if p else np.linspace(lo, hi, c)
            for lo, hi, c, p in zip(self.los, self.his, self.counts, self.periodic)
        ]

    def meshgrid(self):
        return np.meshgrid(*self.coords(), indexing="ij")

    def inset(self, k: int) -> GridAxes:
        """The sub-grid ``k`` points inside both ends of every bounded axis;
        its ends are grid points of this grid."""
        axes = list(zip(self.los, self.his, self.counts, self.periodic, self.coords()))
        return GridAxes(self.names,
                        tuple(lo if per else float(x[k]) for lo, _, _, per, x in axes),
                        tuple(hi if per else float(x[-1 - k]) for _, hi, _, per, x in axes),
                        tuple(c if per else c - 2 * k for _, _, c, per, _ in axes),
                        self.periodic, self.order)


def _central(f: np.ndarray, axis: int, h: float, periodic: bool, order: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Central first difference along ``axis``, written into ``out`` when given.

    A periodic axis is padded once by the stencil radius with its wrapped
    ends and keeps all its points; a bounded axis keeps its interior, the
    ``count - 2r`` points where the stencil has all its samples.  The
    stencil combines shifted slices of the (padded) array.  Only its last
    operation writes ``out``, which may be a strided slot, where every
    operation would run several times slower.
    """
    r = RADIUS[order]
    if periodic:
        width = [(r, r) if i == axis else (0, 0) for i in range(f.ndim)]
        f = np.pad(f, width, mode="wrap")
    count = max(f.shape[axis] - 2 * r, 0)
    lead = (slice(None),) * axis
    s = lambda k: f[lead + (slice(r + k, r + k + count),)]
    if order == 2:
        return np.divide(s(1) - s(-1), 2.0 * h, out=out)
    d = s(-2) - 8.0 * s(-1)
    d += 8.0 * s(1)
    d -= s(2)
    return np.divide(d, 12.0 * h, out=out)


def diff(f: np.ndarray, axis: int, h: float, periodic: bool, order: int) -> np.ndarray:
    """First derivative along one grid axis (central stencil of ``order``);
    a bounded axis keeps its interior."""
    if order not in RADIUS:
        raise UsageError(f"unsupported stencil order {order}")
    return _central(f, axis, h, periodic, order)


def _derivative(f: np.ndarray, axis: int, grid: GridAxes,
                out: np.ndarray | None = None) -> np.ndarray:
    """First derivative along ``axis`` on the window of a gradient of f: the
    other bounded axes are cut by the stencil radius first, so no point
    outside that window is computed."""
    r = RADIUS[grid.order]
    cut = tuple(slice(None) if a == axis or per else slice(r, max(c - r, r))
                for a, (c, per) in enumerate(zip(f.shape, grid.periodic)))
    return _central(f[cut], axis, grid.spacings[axis], grid.periodic[axis], grid.order, out=out)


def gradient(f: np.ndarray, grid: GridAxes) -> np.ndarray:
    """First derivatives along every grid axis, each written into its slot
    of one output.

    Output shape (*G, m, *C): the new direction axis sits at position
    ``grid.ndim``.
    """
    ngrid = grid.ndim
    r = RADIUS[grid.order]
    window = tuple(c if per else max(c - 2 * r, 0) for c, per in zip(f.shape, grid.periodic))
    out = np.empty(window + (ngrid,) + f.shape[ngrid:])
    for axis in range(ngrid):
        _derivative(f, axis, grid, out=out[(slice(None),) * ngrid + (axis,)])
    return out


def margins(field: np.ndarray, grid: GridAxes) -> tuple[int, ...]:
    """Per-axis margin of a field's window: the grid points it lacks at each end."""
    return tuple((c - s) // 2 for c, s in zip(grid.counts, field.shape))


def crop(ngrid: int, *fields) -> tuple:
    """The fields cut to their common window, the smallest of their extents
    on each of the leading ``ngrid`` grid axes (windows are centred, so a
    larger one contains a smaller one).  Views; nothing is copied."""
    window = [min(f.shape[i] for f in fields) for i in range(ngrid)]
    return tuple(f[tuple(slice((c - w) // 2, (c + w) // 2) for c, w in zip(f.shape, window))]
                 for f in fields)


# Grams, contractions with a vector and the metric pairing are formed from
# last-axis dot products, each an einsum over the whole grid: a gram takes
# one per entry (a <= b only, mirrored, when both stacks are the same),
# contract_last one for all entries.  The ambient pairings of grid fields,
# ``lorentz.inner`` and ``SurfacePatch.dot``, are the same weighted dot
# with one entry; weights of +-1 make each product exact, so a point rounds
# alike alone and in a grid.  A batched matmul of the small
# per-point blocks pays one dispatch per block (about 0.2 us), most of its
# cost here, and runs slower still against a transposed view or a column
# vector; a dot pays per point and entry only.  With many entries per
# block (the m^2 rows of d2x against dx in ``patches``) a matmul of
# contiguous operands is cheaper, and those sites stay on @.

def gram(u: np.ndarray, v: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Form-weighted Gram matrices sum_i u_ai v_bi form_i of two stacks of
    vectors (..., p, d) and (..., q, d); output (..., p, q), exactly
    symmetric when v is u."""
    symmetric = u is v
    p, q = u.shape[-2], v.shape[-2]
    out = np.empty(np.broadcast_shapes(u.shape[:-2], v.shape[:-2]) + (p, q))
    for a in range(p):
        for b in range(a if symmetric else 0, q):
            np.einsum("...i,...i,i->...", u[..., a, :], v[..., b, :], form, out=out[..., a, b])
            if symmetric:
                out[..., b, a] = out[..., a, b]
    return out


def contract_last(T: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i T_{...i} w_i over the last axis, for T (*G, *K, d) and w (*G, d)."""
    lead = w.shape[:-1]
    comp = T.shape[len(lead):-1]
    return np.einsum("...i,...i->...", T, w.reshape(lead + (1,) * len(comp) + w.shape[-1:]))


def metric_pairing(P: np.ndarray, Q: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Full contraction g^ac g^bd P_ab Q_cd of two covariant 2-tensor fields."""
    m = ginv.shape[-1]
    one = np.ones(m)
    # W_ac = sum_b P_ab (sum_d Q_cd g^bd): grams of rows, unweighted.
    W = gram(P, gram(Q, ginv, one), one)
    return np.einsum("...i,...i->...", ginv.reshape(ginv.shape[:-2] + (m * m,)),
                     W.reshape(W.shape[:-2] + (m * m,)))


def require_interior(grid: GridAxes, levels: int) -> None:
    """Fail early when a cascade of ``levels`` derivatives eats the grid."""
    margin = RADIUS[grid.order] * levels
    for name, count, per in zip(grid.names, grid.counts, grid.periodic):
        if not per and count <= 2 * margin + 2:
            raise InsufficientInteriorError(
                f"axis {name!r} with {count} points cannot support {levels} cascaded "
                f"derivative levels (needs margin {margin} per side)"
            )


def component_max_abs(f: np.ndarray, ngrid: int) -> np.ndarray:
    """Grid field of the largest |component| of f."""
    return np.abs(f).reshape(f.shape[:ngrid] + (-1,)).max(axis=-1)


def max_abs(field: np.ndarray) -> float:
    """Largest |value| of a field, as max(max f, -min f): exact, with no |f|
    temporary.  A field with no points has none (ValueError)."""
    return abs(float(max(field.max(), -field.min())))   # abs: a -0.0 reads 0.0


# Per-point blocks of size m <= 3 (m = n - 1 parameter axes) are handled
# elementwise over the whole grid: numpy's batched LAPACK wrappers make one
# LAPACK call per block, which is what dominates on three-axis grids.
# Inverses, determinants and Cholesky factors are closed forms.  Spectra
# come from cyclic Jacobi rotations instead, since closed-form 3x3
# eigensolvers (roots of the characteristic cubic) lose relative accuracy
# near repeated eigenvalues.  Each rotation zeroes one off-diagonal entry
# a_pq and is computed from a_pp, a_qq and a_pq alone, and a rotation is
# skipped once |a_pq| <= JACOBI_TOL sqrt|a_pp a_qq|: with that stopping
# rule Jacobi is at least as accurate as QR, and keeps each eigenvalue of a
# graded positive definite block to relative accuracy where QR keeps it
# only relative to the largest (Demmel and Veselic, "Jacobi's method is
# more accurate than QR", SIAM J. Matrix Anal. Appl. 13(4), 1992).  Only
# blocks with m >= 4 take the LAPACK path.  The inverse Cholesky factor
# and the Cholesky reduction are entrywise for every m.
CLOSED_FORM_MAX = 3

# An m = 3 block takes at most JACOBI_SWEEPS sweeps of its three pairs; the
# convergence is quadratic, and a generic block is done after four.
JACOBI_SWEEPS = 8
JACOBI_TOL = np.finfo(float).eps


def _cofactor(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """Signed cofactor of entry (i, j) of each block (m <= 3)."""
    m = a.shape[-1]
    if m == 1:
        return np.ones(a.shape[:-2])
    if m == 2:
        return (-1) ** (i + j) * a[..., 1 - i, 1 - j]
    # Cyclic index shifts carry the sign in a 3x3 block.
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return a[..., i1, j1] * a[..., i2, j2] - a[..., i1, j2] * a[..., i2, j1]


def _small_det(a: np.ndarray) -> np.ndarray:
    """Determinants by cofactor expansion along the first row."""
    return sum(a[..., 0, j] * _cofactor(a, 0, j) for j in range(a.shape[-1]))


def _small_inv(a: np.ndarray) -> np.ndarray:
    """Inverses as adjugate over determinant."""
    m = a.shape[-1]
    adj = np.empty(a.shape)
    for i, j in np.ndindex(m, m):
        adj[..., j, i] = _cofactor(a, i, j)
    det = sum(a[..., 0, j] * adj[..., j, 0] for j in range(m))
    if (det == 0).any():
        raise np.linalg.LinAlgError("Singular matrix")
    return adj / det[..., None, None]


def _small_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each block, column by column."""
    m = a.shape[-1]
    L = np.zeros(a.shape)
    for j in range(m):
        pivot = a[..., j, j] - sum(L[..., j, k] * L[..., j, k] for k in range(j))
        if not (pivot > 0).all():
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        L[..., j, j] = np.sqrt(pivot)
        for i in range(j + 1, m):
            dot = sum(L[..., i, k] * L[..., j, k] for k in range(j))
            L[..., i, j] = (a[..., i, j] - dot) / L[..., j, j]
    return L


def _small_eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric blocks (lower triangle read) by
    cyclic Jacobi rotations: one diagonalizes an m = 2 block exactly."""
    m = a.shape[-1]
    d = [a[..., i, i] for i in range(m)]
    pairs = [(p, q) for p, q in ((0, 1), (0, 2), (1, 2)) if q < m]
    off = {(p, q): a[..., q, p] for p, q in pairs}
    for _ in range(JACOBI_SWEEPS if m == 3 else 1):
        rotated = False
        for p, q in pairs:
            apq = off[p, q]
            big = np.abs(apq) > JACOBI_TOL * np.sqrt(np.abs(d[p])) * np.sqrt(np.abs(d[q]))
            if not big.any():
                continue
            rotated = True
            # t = tan of the angle, the root of t^2 + 2 theta t = 1 of least
            # magnitude; hypot keeps theta^2 from overflowing.
            theta = np.divide(d[q] - d[p], 2.0 * apq, out=np.zeros(apq.shape), where=big)
            t = np.where(big, np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(1.0, theta)), 0.0)
            d[p], d[q] = d[p] - t * apq, d[q] + t * apq
            off[p, q] = np.zeros(apq.shape)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            for r in range(m):
                if r not in (p, q):
                    rp, rq = tuple(sorted((r, p))), tuple(sorted((r, q)))
                    off[rp], off[rq] = c * off[rp] - s * off[rq], s * off[rp] + c * off[rq]
        if not rotated:
            break
    # Ascending order by compare-exchange, pair by pair: a sorting network.
    for i, j in pairs:
        d[i], d[j] = np.minimum(d[i], d[j]), np.maximum(d[i], d[j])
    return np.stack(d, axis=-1)


def _batched(closed, lapack, mat: np.ndarray) -> np.ndarray:
    return (closed if mat.shape[-1] <= CLOSED_FORM_MAX else lapack)(mat)


def grid_inv(mat: np.ndarray) -> np.ndarray:
    return _batched(_small_inv, np.linalg.inv, mat)


def grid_det(mat: np.ndarray) -> np.ndarray:
    return _batched(_small_det, np.linalg.det, mat)


def grid_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors; LinAlgError when a block is not positive
    definite."""
    return _batched(_small_cholesky, np.linalg.cholesky, mat)


def grid_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric blocks."""
    return _batched(_small_eigvalsh, np.linalg.eigvalsh, mat)


def leading_minors(mat: np.ndarray) -> list:
    """Determinants of the leading k x k blocks, k = 1..m; the last is det(mat)."""
    return [grid_det(mat[..., :k, :k]) for k in range(1, mat.shape[-1] + 1)]


def nonpositive_index(mat: np.ndarray, minors: list | None = None):
    """Grid index of the block with the lowest eigenvalue when some block of
    a symmetric field is not positive definite; None when every one is.

    Sylvester's criterion (every leading minor > 0, from ``minors`` when the
    caller has them) screens the grid; eigvalsh runs only when it fails, to
    confirm and locate.
    """
    if minors is None:
        minors = leading_minors(mat)
    if not any((minor <= 0).any() for minor in minors):
        return None
    low = grid_eigvalsh(mat)[..., 0]
    if low.min() > 0:
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmin(low), low.shape))


def inverse_cholesky(metric: np.ndarray) -> np.ndarray:
    """Linv = L^{-1} with L the lower Cholesky factor of ``metric``: its rows
    are a metric-orthonormal basis (Gram-Schmidt on the coordinate basis).

    L is inverted by forward substitution, entrywise over the grid for
    every m: the diagonal reciprocals, then row by row the strictly lower
    entries Linv_ij = -(sum_{j <= k < i} L_ik Linv_kj) / L_ii.
    """
    L = grid_cholesky(metric)
    m = L.shape[-1]
    Linv = np.zeros(L.shape)
    for i in range(m):
        Linv[..., i, i] = 1.0 / L[..., i, i]
        for j in range(i):
            dot = sum(L[..., i, k] * Linv[..., k, j] for k in range(j, i))
            Linv[..., i, j] = -dot / L[..., i, i]
    return Linv


def cholesky_reduce(Q: np.ndarray, Linv: np.ndarray) -> np.ndarray:
    """Linv Q Linv^T for Linv = ``inverse_cholesky(metric)`` and Q symmetric
    up to rounding, exactly symmetric.

    The reduction has the eigenvalues of Q v = k metric v; its eigenvectors
    w give the metric-orthonormal solutions v = Linv^T w.  Only the lower
    triangle of Linv is read, and only the lower triangle of the result is
    formed and mirrored.
    """
    m = Q.shape[-1]
    # Rows of Linv Q: row a combines the rows c <= a of Q.
    LQ = [np.einsum("...c,...cd->...d", Linv[..., a, :a + 1], Q[..., :a + 1, :])
          for a in range(m)]
    out = np.empty(Q.shape)
    for a in range(m):
        for b in range(a + 1):
            np.einsum("...d,...d->...", LQ[a][..., :b + 1], Linv[..., b, :b + 1],
                      out=out[..., a, b])
            out[..., b, a] = out[..., a, b]
    return out


def selfadjoint_eigvals(endo: np.ndarray, metric: np.ndarray,
                        Linv: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues (ascending) of an endomorphism self-adjoint for ``metric``.

    Reduces the generalized problem through the inverse Cholesky factor of
    the metric (``Linv``, when the caller has it), so the result is real
    and sorted.
    """
    if Linv is None:
        Linv = inverse_cholesky(metric)
    return grid_eigvalsh(cholesky_reduce(metric @ endo, Linv))


def christoffel(g: np.ndarray, grid: GridAxes, ginv: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^c_{ab} of a metric field g (*G, m, m) with
    inverse ``ginv``."""
    ngrid = grid.ndim
    dg, ginv = crop(ngrid, gradient(g, grid), ginv)  # dg: (*G, d, a, b)
    low = 0.5 * (
        np.moveaxis(dg, ngrid, ngrid + 1)          # [c, a, b] <- dg[a, c, b]
        + np.moveaxis(dg, ngrid, ngrid + 2)        # [c, a, b] <- dg[b, c, a] (with symmetry of g)
        - dg
    )
    # dg[a,c,b] term: derivative axis moved to slot 'a'; using g symmetry the
    # second term is dg with derivative axis in slot 'b'.
    m = g.shape[-1]
    lead = ginv.shape[:-2]
    return (ginv @ low.reshape(lead + (m, m * m))).reshape(lead + (m, m, m))


def cov_d(T: np.ndarray, Gamma: np.ndarray, grid: GridAxes) -> np.ndarray:
    """nabla_c T_{a_1 ... a_k} of a covariant k-tensor field T (*G, m, ..., m),
    k >= 1; output (*G, c, a_1, ..., a_k).

    The one rule for every rank: the gradient minus, for each slot a_i in
    slot order, Gamma^e_{c a_i} T_{.. e ..}, formed as one batched product
    of Gamma [(c a_i), e] with T, its slot i moved to the front.
    """
    ngrid = grid.ndim
    m = T.shape[-1]
    rank = T.ndim - ngrid
    out, T, Gamma = crop(ngrid, gradient(T, grid), T, Gamma)
    lead = T.shape[:ngrid]
    Gt = np.swapaxes(Gamma.reshape(lead + (m, m * m)), -1, -2)   # [(c a), e]
    for i in range(rank):
        Te = np.moveaxis(T, ngrid + i, ngrid).reshape(lead + (m, m ** (rank - 1)))
        corr = (Gt @ Te).reshape(lead + (m,) * (rank + 1))      # [c, a_i, other slots]
        out -= np.moveaxis(corr, ngrid + 1, ngrid + 1 + i)
    return out


# The rank-named entry points the call sites (and the layer tracer) use.
cov_d_covector = cov_d_tensor2 = cov_d_tensor3 = cov_d


def laplace_beltrami(df: np.ndarray, ginv: np.ndarray, sqrt_det: np.ndarray,
                     grid: GridAxes) -> np.ndarray:
    """Laplace-Beltrami operator (1/sqrt g) d_a(sqrt g g^{ab} d_b f) of a
    field f with one component axis, given its gradient.

    df = ``gradient(f)`` is (*G, b, K), so a caller that holds the gradient
    of f does not take it again; ginv is (*G, m, m) and sqrt_det (*G).
    Output (*G, K).
    """
    ngrid = grid.ndim
    df, ginv, sqrt_det = crop(ngrid, df, ginv, sqrt_det)
    weighted = sqrt_det[..., None, None] * (ginv @ df)              # (*G, a, K)
    div = sum(_derivative(weighted[(slice(None),) * ngrid + (a,)], a, grid)
              for a in range(ngrid))
    div, sqrt_det = crop(ngrid, div, sqrt_det)
    return div / sqrt_det[..., None]


def riemann_tensor(g: np.ndarray, Gamma: np.ndarray, grid: GridAxes) -> np.ndarray:
    """Lowered curvature tensor of a metric field.

    Sign and slot convention: the round sphere comes out positive through
    both K = R_{abab} / (g_aa g_bb - g_ab^2) and the Ricci contraction
    Ric_{ac} = g^{bd} R_{abcd}.
    """
    dG, Gamma, g = crop(grid.ndim, gradient(Gamma, grid), Gamma, g)  # dG[deriv, e, i, j]
    m = g.shape[-1]
    lead = g.shape[:-2]
    # GG[d, x, y, z] = Gamma^d_{xe} Gamma^e_{yz} holds both quadratic terms of
    # R^d_{cab} = d_a Gamma^d_{bc} - d_b Gamma^d_{ac} + Gamma^d_{ae} Gamma^e_{bc} - Gamma^d_{be} Gamma^e_{ac}
    GG = Gamma.reshape(lead + (m * m, m)) @ Gamma.reshape(lead + (m, m * m))
    GG = GG.reshape(lead + (m,) * 4)
    up = (
        np.einsum("...adbc->...dcab", dG)
        - np.einsum("...bdac->...dcab", dG)
        + np.einsum("...dabc->...dcab", GG)
        - np.einsum("...dbac->...dcab", GG)
    )
    # Lower the free slot; swapping the last pair afterwards lands in the
    # positive-sphere arrangement stated above.
    low = (g @ up.reshape(lead + (m, m ** 3))).reshape(lead + (m,) * 4)
    return np.einsum("...dcab->...abdc", low)


def ricci_tensor(riem: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Ricci contraction R_{ac} = g^{bd} R_{abcd} (positive for spheres)."""
    m = ginv.shape[-1]
    lead = ginv.shape[:-2]
    pairs = np.swapaxes(riem, -3, -2).reshape(lead + (m * m, m * m))   # [(a c), (b d)]
    return (pairs @ ginv.reshape(lead + (m * m, 1))).reshape(lead + (m, m))


def scalar_curvature(ricci: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    return np.einsum("...ac,...ac->...", ginv, ricci)


def simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson rule over the last axis of ``y`` (samples ``h`` apart,
    at least three of them).

    An even sample count takes Simpson over all but the last interval and
    closes that one with Cartwright's three-point correction, term for term
    as ``scipy.integrate.simpson`` does since scipy 1.11.
    """
    n = y.shape[-1]
    stop = n - 2 if n % 2 else n - 3
    out = np.sum(y[..., 0:stop:2] + 4.0 * y[..., 1:stop + 1:2] + y[..., 2:stop + 2:2],
                 axis=-1)
    out *= h / 3.0
    if n % 2 == 0:
        alpha = (2 * h ** 2 + 3 * h * h) / (6 * (h + h))
        beta = (h ** 2 + 3.0 * h * h) / (6 * h)
        eta = h ** 3 / (6 * h * (h + h))
        out += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return out


def integrate(field: np.ndarray, grid: GridAxes) -> float:
    """Integral of a grid scalar: rectangle rule on periodic axes (which is
    spectrally accurate there), composite Simpson on bounded axes."""
    work = np.asarray(field, dtype=float)
    if np.isnan(work).any():
        raise UsageError("quadrature over a field with invalid (NaN) entries")
    hs, periodic = grid.spacings, grid.periodic
    for axis in reversed(range(work.ndim)):
        if periodic[axis]:
            work = work.sum(axis=axis) * hs[axis]
        else:
            work = simpson(work, hs[axis])
    return float(work)
