"""Finite differences and tensor calculus on rectangular parameter grids.

A ``GridAxes`` describes the grid and carries its stencil: the order (2 or
4) of the central differences every grid-level kernel here takes, fixed
when the grid is built.

Every grid field is a numpy array whose component axes come first and
whose grid axes (*G) come last, so each component is a contiguous grid
field and a scalar grid field broadcasts against a component field as
written (``rho * y``).  With d ambient components and m parameter axes:

    scalars                               (*G)
    x, xi, Y, eta                         (d, *G)
    dx, dxi                               (m, d, *G)
    d2x (a build's, until II is formed)   (m, m, d, *G)
    I, II, S, g, B, L                     (m, m, *G)
    C                                     (m, *G)
    Gamma^c_ab, nabla_c B_ab, nabla_c L_ab (c, a, b, *G)
    curvature on pairs                    (P, m, m, *G)

A derivative's direction axis goes first: ``gradient`` writes each
direction of a (*K, *G) field into its slot of one (m, *K, *G) array, and
one covariant-derivative rule (``cov_d``) serves every tensor rank.  The
curvature is formed only on its P derivative pairs a < b
(``riemann_tensor``), from single-axis derivatives of the Christoffel rows
each pair needs, and ``ricci_tensor`` reads the pairs.

Each field is stored on its window: the part of the grid where it is
defined.  The stencil walks a field in cache-sized blocks (about
``STENCIL_BLOCK`` elements) of whole slabs of the axes before the
stencil's, and writes each block's derivative straight into its output.
On a periodic axis each block is copied with its wrapped ends into one
padded scratch, so a derivative keeps every point; on a bounded axis the
stencil is taken only where it has all its samples, so each cascaded
derivative drops the stencil radius from both ends.  A field's margin on
an axis is therefore (grid count - field count) / 2 (``margins``, read
off the trailing grid axes), and a pointwise kernel runs on its operands
cut to their common window (``crop``).  No field holds a NaN: a sampled
patch is built on the window of its finite-difference jets, so every
reduction is a plain whole-array one (``max_abs``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientInteriorError, UsageError

# Stencil radius per derivative application, by order.
RADIUS = {2: 1, 4: 2}

# Float64 elements per stencil block: a block, its periodic scratch, the
# scratch of 8 s(1) and its output stay in a core's L2 cache (256 KiB
# each) while the stencil sweeps them.
STENCIL_BLOCK = 2 ** 15


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

    A periodic axis keeps all its points; a bounded axis keeps its interior,
    the ``count - 2r`` points where the stencil has all its samples.  The
    field is differenced in blocks of whole slabs of its leading axis, as
    many as fit in ``STENCIL_BLOCK`` elements and at least one; when one
    slab is larger and the stencil's axis is not the next, each slab is
    differenced on its own, one axis down (a field whose leading axis is
    the stencil's is one block).  On a periodic axis each block is copied
    with its wrapped ends into one padded scratch.  The stencil combines
    shifted slices of the (padded) block straight into the block's slice
    of ``out``.
    """
    r = RADIUS[order]
    n = f.shape[axis]
    count = n if periodic else max(n - 2 * r, 0)
    if out is None:
        out = np.empty(f.shape[:axis] + (count,) + f.shape[axis + 1:])
    result = out
    if axis == 0:
        f, out, axis = f[None], out[None], 1
    slab = math.prod(f.shape[1:])
    if axis > 1 and slab > STENCIL_BLOCK:
        for fi, oi in zip(f, out):
            _central(fi, axis - 1, h, periodic, order, out=oi)
        return result
    step = max(STENCIL_BLOCK // max(slab, 1), 1)
    lead = (slice(None),) * axis
    along = lambda start, stop: lead + (slice(start, stop),)
    rows = min(step, len(f))        # slabs of the first, largest block
    if periodic:
        padded = np.empty((rows,) + f.shape[1:axis] + (n + 2 * r,) + f.shape[axis + 1:])
    if order == 4:
        eight = np.empty((rows,) + out.shape[1:])
    for i in range(0, len(f), step):
        block, dst = f[i:i + step], out[i:i + step]
        if periodic:
            wrapped = padded[:len(block)]
            wrapped[along(r, r + n)] = block
            wrapped[along(0, r)] = block[along(n - r, n)]
            wrapped[along(r + n, n + 2 * r)] = block[along(0, r)]
            block = wrapped
        s = lambda k: block[along(r + k, r + k + count)]
        if order == 2:
            np.subtract(s(1), s(-1), out=dst)
            dst /= 2.0 * h
            continue
        e = eight[:len(dst)]
        np.multiply(s(-1), 8.0, out=e)
        np.subtract(s(-2), e, out=dst)
        np.multiply(s(1), 8.0, out=e)
        dst += e
        dst -= s(2)
        dst /= 12.0 * h
    return result


def _derivative(f: np.ndarray, axis: int, grid: GridAxes,
                out: np.ndarray | None = None) -> np.ndarray:
    """First derivative along grid axis ``axis`` on the window of a gradient
    of f: the other bounded axes are cut by the stencil radius first, so no
    point outside that window is computed."""
    r = RADIUS[grid.order]
    ncomp = f.ndim - grid.ndim
    cut = tuple(slice(None) if a == axis or per else slice(r, max(c - r, r))
                for a, (c, per) in enumerate(zip(f.shape[ncomp:], grid.periodic)))
    return _central(f[(slice(None),) * ncomp + cut], ncomp + axis, grid.spacings[axis],
                    grid.periodic[axis], grid.order, out=out)


def _derivative_window(f: np.ndarray, grid: GridAxes) -> tuple:
    """Grid shape of a derivative of f: a bounded axis loses the stencil
    radius at each end."""
    r = RADIUS[grid.order]
    return tuple(c if per else max(c - 2 * r, 0)
                 for c, per in zip(f.shape[f.ndim - grid.ndim:], grid.periodic))


def gradient(f: np.ndarray, grid: GridAxes) -> np.ndarray:
    """First derivatives of a (*K, *G) field along every grid axis, each
    written into its slot of one (m, *K, *G) output."""
    out = np.empty((grid.ndim,) + f.shape[:f.ndim - grid.ndim] + _derivative_window(f, grid))
    for axis in range(grid.ndim):
        _derivative(f, axis, grid, out=out[axis])
    return out


def margins(field: np.ndarray, grid: GridAxes) -> tuple[int, ...]:
    """Per-axis margin of a field's window: the grid points it lacks at each end."""
    return tuple((c - s) // 2 for c, s in zip(grid.counts, field.shape[field.ndim - grid.ndim:]))


def crop(ngrid: int, *fields) -> tuple:
    """The fields cut to their common window, the smallest of their extents
    on each of the trailing ``ngrid`` grid axes (windows are centred, so a
    larger one contains a smaller one).  Views; nothing is copied."""
    window = [min(f.shape[f.ndim - ngrid + i] for f in fields) for i in range(ngrid)]
    return tuple(f[(Ellipsis,) + tuple(slice((c - w) // 2, (c + w) // 2)
                                       for c, w in zip(f.shape[f.ndim - ngrid:], window))]
                 for f in fields)


def gram(u: np.ndarray, v: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Form-weighted Gram matrices sum_i u_ai v_bi form_i of two stacks of
    vectors (p, d, *G) and (q, d, *G); output (p, q, *G), exactly symmetric
    when v is u.  Each entry is one einsum, summed in component order."""
    symmetric = u is v
    p, q = len(u), len(v)
    out = np.empty((p, q) + np.broadcast_shapes(u.shape[2:], v.shape[2:]))
    for a in range(p):
        for b in range(a if symmetric else 0, q):
            np.einsum("i...,i...,i->...", u[a], v[b], form, out=out[a, b])
            if symmetric:
                out[b, a] = out[a, b]
    return out


def contract_last(T: np.ndarray, w: np.ndarray, form: np.ndarray | None = None) -> np.ndarray:
    """sum_i T_{..i} w_i (times form_i when given) over the last component
    axis of T (*K, d, *G) and the component axis of w (d, *G); output (*K, *G).

    The products are summed in two interleaved lanes,
    (p_0 + p_2 + ...) + (p_1 + p_3 + ...): the order numpy's einsum takes
    for a dot of two contiguous short vectors, with which the curvature
    data pinned in ``perfbench/reference.json`` were recorded.
    """
    lead = (slice(None),) * (T.ndim - w.ndim)
    terms = [T[lead + (i,)] * (w[i] if form is None else w[i] * form[i]) for i in range(len(w))]
    return sum(terms[0::2]) + sum(terms[1::2])


def trace_product(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_ab P_ab Q_ab of two (m, m, *G) fields, e.g. g^ab B_ab."""
    k = P.shape[0] * P.shape[1]
    return contract_last(P.reshape((k,) + P.shape[2:]), Q.reshape((k,) + Q.shape[2:]))


def metric_pairing(P: np.ndarray, Q: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Full contraction g^ac g^bd P_ab Q_cd of two covariant 2-tensor fields."""
    one = np.ones(len(ginv))
    # W_ac = sum_b P_ab (sum_d Q_cd g^bd): grams of rows, unweighted.
    return trace_product(ginv, gram(P, gram(Q, ginv, one), one))


def require_interior(grid: GridAxes, levels: int, spec: GridAxes | None = None) -> None:
    """Fail early when a cascade of ``levels`` derivatives eats the grid; the
    message names the counts of ``spec``, the user's grid ``grid`` is a window of."""
    margin = RADIUS[grid.order] * levels
    for name, count, given, per in zip(grid.names, grid.counts, (spec or grid).counts, grid.periodic):
        if not per and count <= 2 * margin + 2:
            cut = (f" ({count} after the jets' cut of {(given - count) // 2} per side)"
                   if given > count else "")
            raise InsufficientInteriorError(
                f"axis {name!r} with {given} points{cut} cannot support {levels} cascaded "
                f"derivative levels (needs margin {margin} per side)"
            )


def component_max_abs(f: np.ndarray, ngrid: int) -> np.ndarray:
    """Grid field of the largest |component| of f."""
    return np.abs(f).reshape((-1,) + f.shape[f.ndim - ngrid:]).max(axis=0)


def ascending(columns: list) -> list:
    """The grid fields sorted pointwise, in place: compare-exchange of every
    pair i < j in order, a sorting network."""
    for i, j in itertools.combinations(range(len(columns)), 2):
        columns[i], columns[j] = (np.minimum(columns[i], columns[j]),
                                  np.maximum(columns[i], columns[j]))
    return columns


def max_abs(field: np.ndarray) -> float:
    """Largest |value| of a field, as max(max f, -min f): exact, with no |f|
    temporary.  A field with no points has none (ValueError)."""
    return abs(float(max(field.max(), -field.min())))   # abs: a -0.0 reads 0.0


# Per-point blocks of size m <= 3 (m = n - 1 parameter axes) are handled
# elementwise over the whole grid, each block entry a contiguous grid
# field: numpy's batched LAPACK wrappers make one LAPACK call per block,
# which is what dominates on three-axis grids.  Inverses, determinants and
# Cholesky factors are closed forms.  Spectra come from cyclic Jacobi
# rotations instead, since closed-form 3x3 eigensolvers (roots of the
# characteristic cubic) lose relative accuracy near repeated eigenvalues.
# Each rotation zeroes one off-diagonal entry a_pq and is computed from
# a_pp, a_qq and a_pq alone, and a rotation is skipped once
# |a_pq| <= JACOBI_TOL sqrt|a_pp a_qq|: with that stopping rule Jacobi is at
# least as accurate as QR, and keeps each eigenvalue of a graded positive
# definite block to relative accuracy where QR keeps it only relative to
# the largest (Demmel and Veselic, "Jacobi's method is more accurate than
# QR", SIAM J. Matrix Anal. Appl. 13(4), 1992).  Only blocks with m >= 4
# take the LAPACK path.  The inverse Cholesky factor and the Cholesky
# reduction are entrywise for every m.
CLOSED_FORM_MAX = 3

# An m = 3 block takes at most JACOBI_SWEEPS sweeps of its three pairs; the
# convergence is quadratic, and a generic block is done after four.
JACOBI_SWEEPS = 8
JACOBI_TOL = np.finfo(float).eps


def _cofactor(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """Signed cofactor of entry (i, j) of each block (m <= 3)."""
    m = len(a)
    if m == 1:
        return np.ones(a.shape[2:])
    if m == 2:
        return (-1) ** (i + j) * a[1 - i, 1 - j]
    # Cyclic index shifts carry the sign in a 3x3 block.
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return a[i1, j1] * a[i2, j2] - a[i1, j2] * a[i2, j1]


def _small_det(a: np.ndarray) -> np.ndarray:
    """Determinants by cofactor expansion along the first row."""
    return sum(a[0, j] * _cofactor(a, 0, j) for j in range(len(a)))


def _small_inv(a: np.ndarray) -> np.ndarray:
    """Inverses as adjugate over determinant."""
    m = len(a)
    adj = np.empty(a.shape)
    for i, j in np.ndindex(m, m):
        adj[j, i] = _cofactor(a, i, j)
    det = sum(a[0, j] * adj[j, 0] for j in range(m))
    if (det == 0).any():
        raise np.linalg.LinAlgError("Singular matrix")
    return adj / det


def _small_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each block, column by column."""
    m = len(a)
    L = np.zeros(a.shape)
    for j in range(m):
        pivot = a[j, j] - sum(L[j, k] * L[j, k] for k in range(j))
        if not (pivot > 0).all():
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        L[j, j] = np.sqrt(pivot)
        for i in range(j + 1, m):
            dot = sum(L[i, k] * L[j, k] for k in range(j))
            L[i, j] = (a[i, j] - dot) / L[j, j]
    return L


def _small_eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric blocks (lower triangle read) by
    cyclic Jacobi rotations: one diagonalizes an m = 2 block exactly."""
    m = len(a)
    d = [a[i, i] for i in range(m)]
    pairs = [(p, q) for p, q in ((0, 1), (0, 2), (1, 2)) if q < m]
    off = {(p, q): a[q, p] for p, q in pairs}
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
    return np.stack(ascending(d))


def _batched(closed, lapack, mat: np.ndarray) -> np.ndarray:
    if len(mat) <= CLOSED_FORM_MAX:
        return closed(mat)
    # LAPACK reads trailing blocks: a block of m >= 4 is moved there and back.
    out = lapack(np.moveaxis(mat, (0, 1), (-2, -1)))
    ncomp = out.ndim - (mat.ndim - 2)
    return np.moveaxis(out, tuple(range(-ncomp, 0)), tuple(range(ncomp)))


def grid_inv(mat: np.ndarray) -> np.ndarray:
    return _batched(_small_inv, np.linalg.inv, mat)


def grid_det(mat: np.ndarray) -> np.ndarray:
    return _batched(_small_det, np.linalg.det, mat)


def grid_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors; LinAlgError when a block is not positive
    definite."""
    return _batched(_small_cholesky, np.linalg.cholesky, mat)


def grid_eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of symmetric blocks, (m, *G)."""
    return _batched(_small_eigvalsh, np.linalg.eigvalsh, mat)


def leading_minors(mat: np.ndarray) -> list:
    """Determinants of the leading k x k blocks, k = 1..m; the last is det(mat)."""
    return [grid_det(mat[:k, :k]) for k in range(1, len(mat) + 1)]


def nonpositive_index(mat: np.ndarray, minors: list | None = None):
    """Grid index of the block with the lowest eigenvalue when some block of
    a symmetric field is not positive definite; None when every one is.

    Sylvester's criterion (every leading minor > 0, from ``minors`` when the
    caller has them) screens the grid; eigvalsh runs only when it fails, to
    confirm and locate.  A NaN minor fails the criterion, and a NaN block is
    located as not positive definite.
    """
    if minors is None:
        minors = leading_minors(mat)
    if all((minor > 0).all() for minor in minors):
        return None
    low = grid_eigvalsh(mat)[0]
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
    m = len(L)
    Linv = np.zeros(L.shape)
    for i in range(m):
        Linv[i, i] = 1.0 / L[i, i]
        for j in range(i):
            dot = sum(L[i, k] * Linv[k, j] for k in range(j, i))
            Linv[i, j] = -dot / L[i, i]
    return Linv


def cholesky_reduce(Q: np.ndarray, Linv: np.ndarray) -> np.ndarray:
    """Linv Q Linv^T for Linv = ``inverse_cholesky(metric)`` and Q symmetric
    up to rounding, exactly symmetric.

    The reduction has the eigenvalues of Q v = k metric v; its eigenvectors
    w give the metric-orthonormal solutions v = Linv^T w.  Only the lower
    triangle of Linv is read, and only the lower triangle of the result is
    formed and mirrored.
    """
    m = len(Q)
    # Rows of Linv Q: row a combines the rows c <= a of Q.
    LQ = [sum(Linv[a, c] * Q[c] for c in range(a + 1)) for a in range(m)]
    out = np.empty(Q.shape)
    for a in range(m):
        for b in range(a + 1):
            out[a, b] = out[b, a] = contract_last(LQ[a][:b + 1], Linv[b, :b + 1])
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
    return grid_eigvalsh(cholesky_reduce(np.einsum("ab...,bc...->ac...", metric, endo), Linv))


def christoffel(g: np.ndarray, grid: GridAxes, ginv: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^c_{ab} of a metric field g (m, m, *G) with
    inverse ``ginv``: (c, a, b, *G)."""
    dg, ginv = crop(grid.ndim, gradient(g, grid), ginv)     # dg: (d, a, b, *G)
    # Gamma_cab = (d_a g_cb + d_b g_ca - d_c g_ab) / 2, with g symmetric.
    low = 0.5 * ((np.einsum("acb...->cab...", dg) + np.einsum("bca...->cab...", dg)) - dg)
    return np.einsum("ec...,cab...->eab...", ginv, low)


def cov_d(T: np.ndarray, Gamma: np.ndarray, grid: GridAxes) -> np.ndarray:
    """nabla_c T_{a_1 ... a_k} of a covariant k-tensor field T (m, ..., m, *G),
    k >= 1; output (c, a_1, ..., a_k, *G).

    The one rule for every rank: the gradient minus, for each slot a_i in
    slot order, Gamma^e_{c a_i} T_{.. e ..}, one einsum per slot.
    """
    rank = T.ndim - grid.ndim
    out, T, Gamma = crop(grid.ndim, gradient(T, grid), T, Gamma)
    slots = "abcd"[:rank]
    for i, a in enumerate(slots):
        out -= np.einsum(f"ez{a}...,{slots[:i]}e{slots[i + 1:]}...->z{slots}...", Gamma, T)
    return out


# The rank-named entry points the call sites use: perfbench's layer tracer
# wraps them by name.
cov_d_covector = cov_d_tensor2 = cov_d_tensor3 = cov_d


def laplace_beltrami(df: np.ndarray, ginv: np.ndarray, sqrt_det: np.ndarray,
                     grid: GridAxes) -> np.ndarray:
    """Laplace-Beltrami operator (1/sqrt g) d_a(sqrt g g^{ab} d_b f) of a
    field f (*K, *G), given its gradient df = ``gradient(f)`` (m, *K, *G), so
    a caller that holds the gradient of f does not take it again; ginv is
    (m, m, *G) and sqrt_det (*G).  Output (*K, *G).
    """
    ngrid = grid.ndim
    df, ginv, sqrt_det = crop(ngrid, df, ginv, sqrt_det)
    div = sum(_derivative(sqrt_det * sum(ginv[a, b] * df[b] for b in range(ngrid)), a, grid)
              for a in range(ngrid))
    div, sqrt_det = crop(ngrid, div, sqrt_det)
    return div / sqrt_det


def derivative_pairs(m: int) -> list:
    """The derivative pairs (a, b), a < b, of m axes: the order of the
    pair axis of ``riemann_tensor``."""
    return list(itertools.combinations(range(m), 2))


def riemann_tensor(g: np.ndarray, Gamma: np.ndarray, grid: GridAxes) -> np.ndarray:
    """Lowered curvature tensor R_{abxy} of a metric field on its derivative
    pairs a < b: output (P, m, m, *G), slot p holding R_{ab..} of the pair
    ``derivative_pairs(m)[p]``.  The other derivative slots are
    R_{ba..} = -R_{ab..} and R_{aa..} = 0, so no reader needs them formed.

    Sign and slot convention: the round sphere comes out positive through
    both K = R_{abab} / (g_aa g_bb - g_ab^2) and the Ricci contraction
    Ric_{ac} = g^{bd} R_{abcd}.
    """
    pairs = derivative_pairs(len(g))
    window = _derivative_window(Gamma, grid)
    Gw, g = crop(grid.ndim, Gamma, g, np.empty(window))[:2]
    out = np.empty((len(pairs),) + g.shape)
    for p, (a, b) in enumerate(pairs):
        # up[d, c] = R^d_{cab} from the single-axis derivatives of the Gamma
        # rows the pair needs (row i: Gamma^d_{ic}):
        # R^d_{cab} = d_a Gamma^d_{bc} - d_b Gamma^d_{ac} + Gamma^d_{ae} Gamma^e_{bc}
        #             - Gamma^d_{be} Gamma^e_{ac}.
        Ga, Gb = Gw[:, a], Gw[:, b]
        up = ((_derivative(Gamma[:, b], a, grid) - _derivative(Gamma[:, a], b, grid))
              + np.einsum("de...,ec...->dc...", Ga, Gb)) - np.einsum("de...,ec...->dc...", Gb, Ga)
        # Lower the free slot: R_{abxy} = g_xd R^d_{yab}.
        np.einsum("xd...,dy...->xy...", g, up, out=out[p])
    return out


def ricci_tensor(riem: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Ricci contraction R_{ac} = g^{bd} R_{abcd} (positive for spheres) of
    the curvature on its derivative pairs: pair (a, b) adds g^{bd} R_{abcd}
    to row a and, through R_{bacd} = -R_{abcd}, -g^{ad} R_{abcd} to row b."""
    ric = np.zeros(ginv.shape)
    for R, (a, b) in zip(riem, derivative_pairs(len(ginv))):
        ric[a] += contract_last(R, ginv[b])
        ric[b] -= contract_last(R, ginv[a])
    return ric


def scalar_curvature(ricci: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    return trace_product(ginv, ricci)


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
