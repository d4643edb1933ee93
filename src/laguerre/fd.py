"""Finite differences and tensor calculus on rectangular parameter grids.

Fields are numpy arrays whose leading ``ngrid`` axes are grid axes and
whose remaining axes are component axes.  Derivatives use central stencils
only (2nd or 4th order).  Periodic axes wrap; on non-periodic axes the
stencil radius is unavailable near the boundary and those layers are set
to NaN.  NaN propagates through every later pointwise or stencil
operation, so the valid interior shrinks automatically with each cascaded
derivative and reductions must be NaN-aware.

Derivative outputs insert the direction axis right after the grid axes:
gradient of a (*G, k) field is (*G, m, k) with m directions.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientInteriorError, UsageError

# Stencil radius per derivative application, by order.
RADIUS = {2: 1, 4: 2}


def spacing(lo: float, hi: float, count: int, periodic: bool) -> float:
    """Grid step; periodic axes exclude the right endpoint."""
    if count < 4:
        raise UsageError("need at least 4 points per axis")
    return (hi - lo) / (count if periodic else count - 1)


def axis_coords(lo: float, hi: float, count: int, periodic: bool) -> np.ndarray:
    if periodic:
        return lo + (hi - lo) * np.arange(count) / count
    return np.linspace(lo, hi, count)


def _shift(f: np.ndarray, offset: int, axis: int, periodic: bool) -> np.ndarray:
    """f sampled at index + offset; NaN where that falls off a hard edge."""
    if periodic:
        return np.roll(f, -offset, axis=axis)
    out = np.full_like(f, np.nan)
    src = [slice(None)] * f.ndim
    dst = [slice(None)] * f.ndim
    if offset > 0:
        src[axis] = slice(offset, None)
        dst[axis] = slice(None, -offset)
    elif offset < 0:
        src[axis] = slice(None, offset)
        dst[axis] = slice(-offset, None)
    else:
        return f.copy()
    out[tuple(dst)] = f[tuple(src)]
    return out


def diff(f: np.ndarray, axis: int, h: float, periodic: bool, order: int = 4) -> np.ndarray:
    """First derivative along one grid axis (central stencil)."""
    if order not in RADIUS:
        raise UsageError(f"unsupported stencil order {order}")
    s = lambda k: _shift(f, k, axis, periodic)
    if order == 2:
        return (s(1) - s(-1)) / (2.0 * h)
    return (s(-2) - 8.0 * s(-1) + 8.0 * s(1) - s(2)) / (12.0 * h)


def diff2(f: np.ndarray, axis: int, h: float, periodic: bool, order: int = 4) -> np.ndarray:
    """Pure second derivative along one grid axis (central stencil)."""
    if order not in RADIUS:
        raise UsageError(f"unsupported stencil order {order}")
    s = lambda k: _shift(f, k, axis, periodic)
    if order == 2:
        return (s(1) - 2.0 * f + s(-1)) / (h * h)
    return (-s(-2) + 16.0 * s(-1) - 30.0 * f + 16.0 * s(1) - s(2)) / (12.0 * h * h)


def gradient(f: np.ndarray, ngrid: int, hs, periodic, order: int = 4) -> np.ndarray:
    """Stack of first derivatives along every grid axis.

    Output shape (*G, m, *C): the new direction axis sits at position
    ``ngrid``.
    """
    parts = [diff(f, axis, hs[axis], periodic[axis], order) for axis in range(ngrid)]
    return np.stack(parts, axis=ngrid)


# Pointwise contractions are staged as batched matrix products over the
# trailing axes: a multi-operand einsum loops over every index combination
# per grid point, which is what dominates for three or more parameter axes.

def gram(u: np.ndarray, v: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Form-weighted Gram matrices sum_i u_ai v_bi form_i of two stacks of
    vectors (..., m, d); output (..., m, m)."""
    return (u * form) @ np.swapaxes(v, -1, -2)


def contract_last(T: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i T_{...i} w_i over the last axis, for T (*G, *K, d) and w (*G, d)."""
    lead = w.shape[:-1]
    comp = T.shape[len(lead):-1]
    prod = T.reshape(lead + (-1, w.shape[-1])) @ w[..., None]
    return prod.reshape(lead + comp)


def metric_pairing(P: np.ndarray, Q: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Full contraction g^ac g^bd P_ab Q_cd of two covariant 2-tensor fields."""
    raised = ginv @ Q @ np.swapaxes(ginv, -1, -2)
    return np.einsum("...ab,...ab->...", P, raised)


def require_interior(counts, periodic, order: int, levels: int) -> None:
    """Fail early when a cascade of ``levels`` derivatives eats the grid."""
    margin = RADIUS[order] * levels
    for count, per in zip(counts, periodic):
        if not per and count <= 2 * margin + 2:
            raise InsufficientInteriorError(
                f"axis with {count} points cannot support {levels} cascaded "
                f"derivative levels (needs margin {margin} per side)"
            )


def valid_mask(ngrid: int, *fields) -> np.ndarray:
    """Grid mask of points where every given field is finite.

    The leading ``ngrid`` axes of each field are grid axes; its component
    axes are reduced with 'all finite'.
    """
    shapes = {f.shape[:ngrid] for f in fields}
    if len(shapes) != 1:
        raise UsageError("fields do not share a grid shape")
    mask = np.ones(next(iter(shapes)), dtype=bool)
    for f in fields:
        mask &= np.isfinite(f).reshape(mask.shape + (-1,)).all(axis=-1)
    return mask


def component_max_abs(f: np.ndarray, ngrid: int) -> np.ndarray:
    """Grid field of the largest |component| of f (NaN where any is NaN)."""
    return np.abs(f).reshape(f.shape[:ngrid] + (-1,)).max(axis=-1)


def nanmax_abs(field: np.ndarray) -> float:
    """Largest |value| over the valid region (0.0 for an all-NaN field)."""
    if np.all(np.isnan(field)):
        return 0.0
    return float(np.nanmax(np.abs(field)))


def interior_margins(mask: np.ndarray) -> tuple[int, ...]:
    """Per-axis NaN margin of a validity mask (0 on fully valid axes)."""
    margins = []
    for axis in range(mask.ndim):
        collapsed = mask.any(axis=tuple(i for i in range(mask.ndim) if i != axis))
        idx = np.nonzero(collapsed)[0]
        margins.append(int(idx[0]) if idx.size else mask.shape[axis])
    return tuple(margins)


# Per-point blocks of size m <= 3 (m = n - 1 parameter axes) are inverted,
# factored and reduced by elementwise closed forms over the whole grid:
# numpy's batched LAPACK wrappers make one LAPACK call per block, which is
# what dominates on three-axis grids.  Larger blocks take the LAPACK path.
# Spectra stay on LAPACK (eigh, eigvalsh): closed-form 3x3 eigensolvers lose
# relative accuracy near repeated eigenvalues.
CLOSED_FORM_MAX = 3


def _masked_batched(op, mat: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Apply a batched matrix op, routing NaN blocks around it."""
    bad = ~np.isfinite(mat).all(axis=(-2, -1))
    if not bad.any():
        return op(mat)
    out = np.asarray(op(np.where(bad[..., None, None], fill, mat)), dtype=float)
    # One scalar (det), vector (eigenvalues) or matrix per block.
    return np.where(bad.reshape(bad.shape + (1,) * (out.ndim - bad.ndim)), np.nan, out)


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


def _batched(closed, lapack, mat: np.ndarray) -> np.ndarray:
    m = mat.shape[-1]
    return _masked_batched(closed if m <= CLOSED_FORM_MAX else lapack, mat, np.eye(m))


def grid_inv(mat: np.ndarray) -> np.ndarray:
    """Batched matrix inverse that passes NaN blocks through."""
    return _batched(_small_inv, np.linalg.inv, mat)


def grid_det(mat: np.ndarray) -> np.ndarray:
    return _batched(_small_det, np.linalg.det, mat)


def grid_cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors; LinAlgError when a finite block is not
    positive definite."""
    return _batched(_small_cholesky, np.linalg.cholesky, mat)


def grid_eigvalsh(mat: np.ndarray) -> np.ndarray:
    return _masked_batched(np.linalg.eigvalsh, mat, np.eye(mat.shape[-1]))


def leading_minors(mat: np.ndarray) -> list:
    """Determinants of the leading k x k blocks, k = 1..m; the last is det(mat)."""
    return [grid_det(mat[..., :k, :k]) for k in range(1, mat.shape[-1] + 1)]


def nonpositive_index(mat: np.ndarray, minors: list | None = None):
    """Grid index of the finite block with the lowest eigenvalue when some
    finite block of a symmetric field is not positive definite; None when
    every one is.

    Sylvester's criterion (every leading minor > 0, from ``minors`` when the
    caller has them) screens the grid; eigvalsh runs only when it fails, to
    confirm and locate.
    """
    if minors is None:
        minors = leading_minors(mat)
    if not any((minor <= 0).any() for minor in minors):
        return None
    eig = grid_eigvalsh(mat)
    low = np.nanmin(eig)
    if not (np.isfinite(low) and low <= 0):
        return None
    return tuple(int(i) for i in np.unravel_index(np.nanargmin(eig[..., 0]), eig.shape[:-1]))


def inverse_cholesky(metric: np.ndarray) -> np.ndarray:
    """Linv = L^{-1} with L the lower Cholesky factor of ``metric``: its rows
    are a metric-orthonormal basis (Gram-Schmidt on the coordinate basis)."""
    return grid_inv(grid_cholesky(metric))


def cholesky_reduce(Q: np.ndarray, Linv: np.ndarray) -> np.ndarray:
    """Symmetrized Linv Q Linv^T for Linv = ``inverse_cholesky(metric)``.

    The reduction has the eigenvalues of Q v = k metric v; its eigenvectors
    w give the metric-orthonormal solutions v = Linv^T w.
    """
    sym = Linv @ Q @ np.swapaxes(Linv, -1, -2)
    return 0.5 * (sym + np.swapaxes(sym, -1, -2))


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


def christoffel(g: np.ndarray, ngrid: int, hs, periodic, order: int = 4,
                ginv: np.ndarray | None = None) -> np.ndarray:
    """Christoffel symbols Gamma^c_{ab} of a metric field g (*G, m, m)."""
    if ginv is None:
        ginv = grid_inv(g)
    dg = gradient(g, ngrid, hs, periodic, order)  # (*G, d, a, b)
    low = 0.5 * (
        np.moveaxis(dg, ngrid, ngrid + 1)          # [c, a, b] <- dg[a, c, b]
        + np.moveaxis(dg, ngrid, ngrid + 2)        # [c, a, b] <- dg[b, c, a] (with symmetry of g)
        - dg
    )
    # dg[a,c,b] term: derivative axis moved to slot 'a'; using g symmetry the
    # second term is dg with derivative axis in slot 'b'.
    m = g.shape[-1]
    lead = g.shape[:-2]
    return (ginv @ low.reshape(lead + (m, m * m))).reshape(lead + (m, m, m))


def cov_d_covector(C: np.ndarray, Gamma: np.ndarray, ngrid: int, hs, periodic,
                   order: int = 4) -> np.ndarray:
    """nabla_c C_a for a covector field C (*G, m); output (*G, c, a)."""
    dC = gradient(C, ngrid, hs, periodic, order)
    m = C.shape[-1]
    lead = C.shape[:-1]
    corr = C[..., None, :] @ Gamma.reshape(lead + (m, m * m))   # Gamma^e_ca C_e
    return dC - corr.reshape(lead + (m, m))


def cov_d_tensor2(T: np.ndarray, Gamma: np.ndarray, ngrid: int, hs, periodic,
                  order: int = 4) -> np.ndarray:
    """nabla_c T_ab for a covariant 2-tensor (*G, m, m); output (*G, c, a, b)."""
    dT = gradient(T, ngrid, hs, periodic, order)
    m = T.shape[-1]
    lead = T.shape[:-2]
    G2 = Gamma.reshape(lead + (m, m * m))                       # [e, (c x)]
    corr_a = (np.swapaxes(G2, -1, -2) @ T).reshape(lead + (m, m, m))  # Gamma^e_ca T_eb
    corr_b = (T @ G2).reshape(lead + (m, m, m))                 # [a, c, b]: T_ae Gamma^e_cb
    return dT - corr_a - np.swapaxes(corr_b, -3, -2)


def cov_d_tensor3(U: np.ndarray, Gamma: np.ndarray, ngrid: int, hs, periodic,
                  order: int = 4) -> np.ndarray:
    """nabla_d U_cab for a covariant 3-tensor (*G, m, m, m); output (*G, d, c, a, b)."""
    dU = gradient(U, ngrid, hs, periodic, order)
    m = U.shape[-1]
    lead = U.shape[:-3]
    G2 = Gamma.reshape(lead + (m, m * m))                       # [e, (d x)]
    G2t = np.swapaxes(G2, -1, -2)                               # [(d x), e]
    cube = lead + (m,) * 4
    # Gamma^e_dc U_eab
    corr_c = (G2t @ U.reshape(lead + (m, m * m))).reshape(cube)
    # Gamma^e_da U_ceb, formed as [d, a, c, b]
    Ue = np.swapaxes(U, -3, -2).reshape(lead + (m, m * m))      # [e, (c b)]
    corr_a = np.swapaxes((G2t @ Ue).reshape(cube), -3, -2)
    # U_cae Gamma^e_db, formed as [c, a, d, b]
    corr_b = np.moveaxis((U.reshape(lead + (m * m, m)) @ G2).reshape(cube), -2, -4)
    return dU - corr_c - corr_a - corr_b


def laplace_beltrami(f: np.ndarray, ngrid: int, ginv: np.ndarray, sqrt_det: np.ndarray,
                     hs, periodic, order: int = 4) -> np.ndarray:
    """Laplace-Beltrami operator (1/sqrt g) d_a(sqrt g g^{ab} d_b f).

    f may carry component axes; ginv is (*G, m, m) and sqrt_det (*G).
    """
    grid_shape = f.shape[:ngrid]
    comp_shape = f.shape[ngrid:]
    fw = f.reshape(grid_shape + (-1,))             # (*G, K)
    df = gradient(fw, ngrid, hs, periodic, order)  # (*G, b, K)
    flux = ginv @ df
    weighted = sqrt_det[..., None, None] * flux
    div = sum(
        diff(np.take(weighted, a, axis=ngrid), a, hs[a], periodic[a], order)
        for a in range(ngrid)
    )
    out = div / sqrt_det[..., None]
    return out.reshape(grid_shape + comp_shape)


def riemann_tensor(g: np.ndarray, Gamma: np.ndarray, ngrid: int, hs, periodic,
                   order: int = 4) -> np.ndarray:
    """Lowered curvature tensor of a metric field.

    Sign and slot convention: the round sphere comes out positive through
    both K = R_{abab} / (g_aa g_bb - g_ab^2) and the Ricci contraction
    Ric_{ac} = g^{bd} R_{abcd}.
    """
    dG = gradient(Gamma, ngrid, hs, periodic, order)  # (*G, deriv, e, i, j)
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


def integrate(field: np.ndarray, hs, periodic) -> float:
    """Integral of a grid scalar: rectangle rule on periodic axes (which is
    spectrally accurate there), composite Simpson on bounded axes."""
    work = np.asarray(field, dtype=float)
    if np.isnan(work).any():
        raise UsageError("quadrature over a field with invalid (NaN) entries")
    for axis in reversed(range(work.ndim)):
        if periodic[axis]:
            work = work.sum(axis=axis) * hs[axis]
        else:
            work = simpson(work, hs[axis])
    return float(work)
