"""Sampled hypersurface patches with derivative jets.

A patch stores, on a rectangular parameter grid, the immersion x, its
first and second parameter derivatives, the unit normal xi and the first
and second derivatives of xi.  Patches live in one of three geometries:

* "r3"  -- Euclidean R^n (ambient form +...+),
* "r31" -- Lorentzian R^n_1 (+...+-, last axis time-like, <xi, xi> = -1),
* "r30" -- the degenerate hyperplane of R^{n+1}_1: points with first
           coordinate equal to the last; the normal is the null vector
           field normalized against nu = (1, 0, ..., 0, 1).

Builtin surfaces supply x-jets to third order analytically; the normal
jets are then produced exactly through the shape operator (the relation
d(xi) = -dx o S and its derivative), so no hand-differentiated normals
are needed anywhere.  Sampled ("samples") patches fall back to central
finite differences for every jet.

What a patch computes is pulled by what reads it.  The build computes x,
dx, d2x and xi and screens the patch, which reads I, II, I^{-1}, S, the
inverse Cholesky factor of I and the curvature data; each of those is a
cached value on the patch, formed once however many consumers read it.
The normal jets, the third fundamental form and the cone lift are formed
on first read, and a builtin's third x-jets only when d2xi is read (by a
group action or a space-form embedding); the volume and an analysis never
read them.

Degeneracy policy: umbilic points, vanishing principal curvatures,
curvature-label crossings and non-immersion points inside the grid abort
the build with the offending grid index; they are never smoothed over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import fd
from .errors import DegenerateSurfaceError, UsageError
from .spheres import contact_pencil

UMBILIC_TOL_FACTOR = 1e-8        # times patch diameter
CURVATURE_ZERO_FACTOR = 1e-10    # divided by patch diameter
CROSSING_SPIKE_FACTOR = 20.0     # kink spike over the smooth second-difference level
CROSSING_GAP_FRACTION = 0.5      # of the median gap: "locally collapsed"


@dataclass(frozen=True)
class GridAxes:
    """Rectangular parameter grid: names, ranges, counts, periodicity."""

    names: tuple
    los: tuple
    his: tuple
    counts: tuple
    periodic: tuple

    def __post_init__(self):
        m = len(self.names)
        if not (len(self.los) == len(self.his) == len(self.counts) == len(self.periodic) == m):
            raise UsageError("inconsistent grid axis description")
        for count in self.counts:
            if count < 6:
                raise UsageError("need at least 6 samples per axis")

    @property
    def ndim(self) -> int:
        return len(self.names)

    @property
    def shape(self) -> tuple:
        return tuple(self.counts)

    @property
    def spacings(self) -> tuple:
        return tuple(
            fd.spacing(lo, hi, c, p)
            for lo, hi, c, p in zip(self.los, self.his, self.counts, self.periodic)
        )

    def coords(self):
        """1-d coordinate arrays, one per axis."""
        return [
            fd.axis_coords(lo, hi, c, p)
            for lo, hi, c, p in zip(self.los, self.his, self.counts, self.periodic)
        ]

    def meshgrid(self):
        return np.meshgrid(*self.coords(), indexing="ij")


def ambient_form_diag(space: str, n: int) -> np.ndarray:
    """Signature diagonal of the ambient inner product for each geometry."""
    if space == "r3":
        return np.ones(n)
    if space == "r31":
        d = np.ones(n)
        d[-1] = -1.0
        return d
    if space == "r30":
        d = np.ones(n + 1)
        d[-1] = -1.0
        return d
    raise UsageError(f"unknown space tag {space!r}")


def nu_vector(n: int) -> np.ndarray:
    """The null direction (1, 0, ..., 0, 1) of the degenerate hyperplane."""
    v = np.zeros(n + 1)
    v[0] = 1.0
    v[-1] = 1.0
    return v


@dataclass(eq=False)
class SurfacePatch:
    """Immutable sampled hypersurface with jets.

    Grid axes lead every array; ambient components trail.  ``dx`` has shape
    (*G, m, d), ``d2x`` (*G, m, m, d) and likewise for the normal.

    The immersion jets and the normal are stored; every other field is a
    value computed on first read and then cached: the normal jets ``dxi``
    and ``d2xi`` (from ``normal_jets``, see ``given_normal_jets`` and
    ``shape_normal_jets``), the fundamental forms ``I``/``II``, ``Iinv``,
    the shape operator ``S``, the inverse Cholesky factor ``Linv`` of I,
    the curvature data ``shape``, ``third_form`` and the cone ``lift``.
    """

    space: str
    n: int
    axes: GridAxes
    x: np.ndarray
    dx: np.ndarray
    d2x: np.ndarray
    xi: np.ndarray
    normal_jets: Callable = field(repr=False)   # (patch, order) -> d^order xi
    metadata: dict = field(default_factory=dict)

    @property
    def ambient_dim(self) -> int:
        return self.x.shape[-1]

    @property
    def form(self) -> np.ndarray:
        return ambient_form_diag(self.space, self.n)

    @property
    def ngrid(self) -> int:
        return self.axes.ndim

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ambient inner product, broadcasting over grid axes."""
        return np.sum(self.form * u * v, axis=-1)

    @property
    def diameter(self) -> float:
        mins = self.x.reshape(-1, self.ambient_dim).min(axis=0)
        maxs = self.x.reshape(-1, self.ambient_dim).max(axis=0)
        return float(np.linalg.norm(maxs - mins))

    @cached_property
    def dxi(self) -> np.ndarray:
        return self.normal_jets(self, 1)

    @cached_property
    def d2xi(self) -> np.ndarray:
        return self.normal_jets(self, 2)

    @cached_property
    def I(self) -> np.ndarray:
        return first_fundamental(self)

    @cached_property
    def II(self) -> np.ndarray:
        return second_fundamental(self)

    @cached_property
    def Iinv(self) -> np.ndarray:
        return fd.grid_inv(self.I)

    @cached_property
    def S(self) -> np.ndarray:
        """Shape operator S = I^{-1} II, the operator in d(xi) = -dx o S."""
        return self.Iinv @ self.II

    @cached_property
    def Linv(self) -> np.ndarray:
        return fd.inverse_cholesky(self.I)

    @cached_property
    def shape(self) -> ShapeData:
        """Curvature data of the patch, computed (and screened) on first read."""
        return shape_data(self)

    @cached_property
    def third_form(self) -> np.ndarray:
        """Third fundamental form III = <dxi, dxi>."""
        return fd.gram(self.dxi, self.dxi, self.form)

    @cached_property
    def lift(self) -> LaguerreLift:
        return laguerre_lift(self)


def given_normal_jets(dxi: np.ndarray, d2xi: np.ndarray) -> Callable:
    """Normal-jets source of a patch whose normal jets are handed in."""
    return lambda patch, order: (dxi, d2xi)[order - 1]


def shape_normal_jets(third: Callable) -> Callable:
    """Normal-jets source of a patch with exact x-jets: d(xi) = -dx o S, and
    ``_d2xi_from_shape`` with the third x-jets ``third()``, which are built
    only when d2xi is read."""
    def jets(patch, order):
        if order == 1:
            return -(np.swapaxes(patch.S, -1, -2) @ patch.dx)
        return _d2xi_from_shape(patch, third())
    return jets


# ---------------------------------------------------------------------------
# Shape data and the cone lift
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ShapeData:
    """Pointwise curvature data of a patch.

    ``k`` holds the principal curvatures sorted descending, ``radii`` their
    reciprocals in the same order, ``r`` the mean curvature radius, ``rho``
    the size sqrt(sum (r_i - r)^2) of the trace-free radius part and
    ``dirs`` the matching principal directions as rows of parameter
    components (orthonormal for the first fundamental form).
    """

    k: np.ndarray
    radii: np.ndarray
    r: np.ndarray
    rho: np.ndarray
    dirs: np.ndarray


@dataclass(eq=False)
class LaguerreLift:
    """Pointwise-exact cone fields of a patch."""

    y: np.ndarray
    Y: np.ndarray
    eta: np.ndarray
    rho: np.ndarray
    r: np.ndarray


def first_fundamental(patch: SurfacePatch) -> np.ndarray:
    return fd.gram(patch.dx, patch.dx, patch.form)


def second_fundamental(patch: SurfacePatch) -> np.ndarray:
    return fd.contract_last(patch.d2x, patch.xi * patch.form)


def shape_data(patch: SurfacePatch) -> ShapeData:
    """Principal curvatures, radii and directions over the whole grid.

    Raises DegenerateSurfaceError (naming a grid index) on umbilics,
    vanishing curvatures or curvature-label crossings; the excluded sets
    are part of the domain of everything downstream.  Patches with
    finite-difference jets carry NaN boundary layers, which simply stay
    NaN here and are skipped by the checks.
    """
    # Generalized symmetric eigenproblem II v = k I v through the Cholesky
    # factor of I, so the directions come out I-orthonormal.
    sym = fd.cholesky_reduce(patch.II, patch.Linv)
    bad = ~np.isfinite(sym).all(axis=(-2, -1))
    symw = np.where(bad[..., None, None], np.eye(sym.shape[-1]), sym)
    vals, vecs = np.linalg.eigh(symw)
    vals = np.where(bad[..., None], np.nan, vals[..., ::-1])
    # Undo the Cholesky change of basis; rows of ``dirs`` are directions.
    dirs = np.swapaxes(vecs[..., ::-1], -1, -2) @ patch.Linv
    dirs = np.where(bad[..., None, None], np.nan, dirs)

    diam = patch.diameter
    k_zero_tol = CURVATURE_ZERO_FACTOR / max(diam, 1e-300)
    flat = np.abs(vals) <= k_zero_tol
    if flat.any():
        idx = tuple(int(i) for i in np.argwhere(flat)[0][:patch.ngrid])
        raise DegenerateSurfaceError(
            f"vanishing principal curvature at grid index {idx}"
        )

    radii = 1.0 / vals
    r = radii.mean(axis=-1)
    rho = np.sqrt(np.sum((radii - r[..., None]) ** 2, axis=-1))
    umb_tol = UMBILIC_TOL_FACTOR * diam
    umb = rho <= umb_tol
    if umb.any():
        idx = tuple(int(i) for i in np.argwhere(umb)[0])
        raise DegenerateSurfaceError(f"umbilic point at grid index {idx}")

    _check_crossings(vals, patch.ngrid)
    return ShapeData(k=vals, radii=radii, r=r, rho=rho, dirs=dirs)


def laguerre_lift(patch: SurfacePatch) -> LaguerreLift:
    """Light-cone position Y = rho gamma2 and mean-curvature-sphere
    coordinate eta = gamma1 + r gamma2, built from the zeroth-order pencil
    (gamma1, gamma2) in the layout of the patch's own space form."""
    shape = patch.shape
    g1, y = contact_pencil(patch.x, patch.xi, patch.form, patch.space)
    Y = shape.rho[..., None] * y
    eta = g1 + shape.r[..., None] * y
    return LaguerreLift(y=y, Y=Y, eta=eta, rho=shape.rho, r=shape.r)


def _check_crossings(vals: np.ndarray, ngrid: int) -> None:
    """Detect curvature-label crossings inside the grid.

    Sorted labels are continuous but kink where two curvature families
    cross, so a crossing leaves a second-difference spike on a sorted-gap
    field exactly where that gap collapses below its typical size.  Both
    signatures are required before flagging, which keeps legitimately
    wide-ranging gaps (and identically repeated curvatures) out of the
    net.
    """
    for i in range(vals.shape[-1] - 1):
        gap = vals[..., i] - vals[..., i + 1]
        med = float(np.nanmedian(gap))
        scale = float(np.nanmax(np.abs(vals)))
        if not np.isfinite(med) or med <= 1e-12 * scale:
            continue  # identically degenerate pair: allowed
        for axis in range(ngrid):
            if gap.shape[axis] < 5:
                continue
            sl_m = [slice(1, -1)] * ngrid
            sl_p = list(sl_m)
            sl_0 = list(sl_m)
            sl_m[axis] = slice(0, -2)
            sl_p[axis] = slice(2, None)
            sl_0[axis] = slice(1, -1)
            spike = np.abs(
                gap[tuple(sl_p)] - 2.0 * gap[tuple(sl_0)] + gap[tuple(sl_m)]
            )
            smooth = float(np.nanmedian(spike))
            big = np.nan_to_num(spike, nan=0.0) > max(
                CROSSING_SPIKE_FACTOR * smooth, 1e-13 * scale
            )
            local_gap = gap[tuple(sl_0)]
            collapsed = np.nan_to_num(local_gap, nan=np.inf) < CROSSING_GAP_FRACTION * med
            hit = big & collapsed
            if hit.any():
                inner = np.argwhere(hit)[0]
                idx = tuple(int(v) + 1 for v in inner)
                raise DegenerateSurfaceError(
                    f"principal curvature crossing near grid index {idx}; "
                    "re-grid to keep curvature labels separated"
                )


# ---------------------------------------------------------------------------
# Exact normal jets through the shape operator
# ---------------------------------------------------------------------------

def _d2xi_from_shape(patch: SurfacePatch, d3x: np.ndarray) -> np.ndarray:
    """Second derivatives of the unit normal, pointwise exact.

    Differentiates d(xi) = -dx o S through the third-order jets of x:
    dS = I^{-1} (dII - dI S).  Valid in every geometry because only the
    ambient form enters.
    """
    dx, d2x, xi, form, S = patch.dx, patch.d2x, patch.xi, patch.form, patch.S
    m, d = dx.shape[-2:]
    lead = dx.shape[:-2]

    # Rows (d, a) of the second jets against the (weighted) first jets.
    d2x_rows = d2x.reshape(lead + (m * m, d))
    P = (d2x_rows @ np.swapaxes(dx * form, -1, -2)).reshape(lead + (m, m, m))
    dI = P + np.swapaxes(P, -1, -2)
    Q = (d2x_rows @ np.swapaxes(patch.dxi * form, -1, -2)).reshape(lead + (m, m, m))
    dII = fd.contract_last(d3x, xi * form) + np.moveaxis(Q, -1, -3)
    dIS = (dI.reshape(lead + (m * m, m)) @ S).reshape(lead + (m, m, m))
    dS = patch.Iinv[..., None, :, :] @ (dII - dIS)
    return -(np.swapaxes(dS, -1, -2) @ dx[..., None, :, :]) - (
        np.swapaxes(S, -1, -2)[..., None, :, :] @ d2x
    )


# ---------------------------------------------------------------------------
# Builtin surfaces (analytic x-jets to third order)
# ---------------------------------------------------------------------------

def _vec(*comps):
    """Stack scalar grid fields (broadcast together) into a vector field."""
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def _torus_jets(params, U, V):
    R = float(params.get("R", 2.0))
    a = float(params.get("a", 1.0))
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)
    w = R + a * cu
    zeros = np.zeros_like(U)

    x = _vec(w * cv, w * sv, a * su)
    xu = _vec(-a * su * cv, -a * su * sv, a * cu)
    xv = _vec(-w * sv, w * cv, zeros)
    xuu = _vec(-a * cu * cv, -a * cu * sv, -a * su)
    xuv = _vec(a * su * sv, -a * su * cv, zeros)
    xvv = _vec(-w * cv, -w * sv, zeros)
    xi = _vec(cu * cv, cu * sv, su)

    dx = np.stack([xu, xv], axis=-2)
    d2x = np.stack(
        [np.stack([xuu, xuv], axis=-2), np.stack([xuv, xvv], axis=-2)], axis=-3
    )

    def third():
        return _third_from_table({
            (0, 0, 0): _vec(a * su * cv, a * su * sv, -a * cu),
            (0, 0, 1): _vec(a * cu * sv, -a * cu * cv, zeros),
            (0, 1, 1): _vec(a * su * cv, a * su * sv, zeros),
            (1, 1, 1): _vec(w * sv, -w * cv, zeros),
        }, 2)
    return x, dx, d2x, xi, third


def _sphere_jets(params, U, V):
    R = float(params.get("R", 1.0))
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)
    zeros = np.zeros_like(U)

    xi = _vec(cu * cv, cu * sv, su)
    xiu = _vec(-su * cv, -su * sv, cu)
    xiv = _vec(-cu * sv, cu * cv, zeros)
    xiuu = -xi
    xiuv = _vec(su * sv, -su * cv, zeros)
    xivv = _vec(-cu * cv, -cu * sv, zeros)

    x = R * xi
    dx = R * np.stack([xiu, xiv], axis=-2)
    d2x = R * np.stack(
        [np.stack([xiuu, xiuv], axis=-2), np.stack([xiuv, xivv], axis=-2)], axis=-3
    )

    def third():
        return R * _third_from_table({
            (0, 0, 0): -xiu, (0, 0, 1): -xiv,
            (0, 1, 1): _vec(su * cv, su * sv, zeros),
            (1, 1, 1): _vec(cu * sv, -cu * cv, zeros),
        }, 2)
    return x, dx, d2x, xi, third


def _cylinder_jets(params, U, V):
    R = float(params.get("R", 1.0))
    cv, sv = np.cos(V), np.sin(V)
    zeros = np.zeros_like(U)
    ones = np.ones_like(U)

    x = _vec(R * cv, R * sv, U)
    xu = _vec(zeros, zeros, ones)
    xv = _vec(-R * sv, R * cv, zeros)
    xvv = _vec(-R * cv, -R * sv, zeros)
    zero3 = np.zeros_like(x)
    dx = np.stack([xu, xv], axis=-2)
    d2x = np.stack(
        [np.stack([zero3, zero3], axis=-2), np.stack([zero3, xvv], axis=-2)], axis=-3
    )
    xi = _vec(cv, sv, zeros)
    return x, dx, d2x, xi, lambda: _third_from_table({(1, 1, 1): _vec(R * sv, -R * cv, zeros)}, 2)


def _graph_jets(params, *coords):
    """Translational graph x = (u_1, ..., u_m, sum_i f_i(u_i)) with
    f_i(t) = quad_i t^2 + cubic_i t^3, upward unit normal."""
    m = len(coords)
    quad = np.asarray(params.get("quad", [1.0, 0.5][:m] if m == 2 else [1.0, 0.7, 0.4]), dtype=float)
    cubic = np.asarray(params.get("cubic", np.zeros(m)), dtype=float)
    if quad.shape != (m,) or cubic.shape != (m,):
        raise UsageError("graph coefficients must match the number of axes")
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    grids = [np.broadcast_to(c, shape) for c in coords]

    f = sum(quad[i] * grids[i] ** 2 + cubic[i] * grids[i] ** 3 for i in range(m))
    f1 = [2 * quad[i] * grids[i] + 3 * cubic[i] * grids[i] ** 2 for i in range(m)]
    f2 = [2 * quad[i] + 6 * cubic[i] * grids[i] for i in range(m)]

    d = m + 1
    x = np.zeros(shape + (d,))
    for i in range(m):
        x[..., i] = grids[i]
    x[..., -1] = f

    dx = np.zeros(shape + (m, d))
    for i in range(m):
        dx[..., i, i] = 1.0
        dx[..., i, -1] = f1[i]
    d2x = np.zeros(shape + (m, m, d))
    for i in range(m):
        d2x[..., i, i, -1] = f2[i]

    def third():
        d3x = np.zeros(shape + (m, m, m, d))
        for i in range(m):
            d3x[..., i, i, i, -1] = 6 * cubic[i] * np.ones(shape)
        return d3x

    grad2 = sum(g * g for g in f1)
    s = np.sqrt(1.0 + grad2)
    xi = np.zeros(shape + (d,))
    for i in range(m):
        xi[..., i] = -f1[i] / s
    xi[..., -1] = 1.0 / s
    return x, dx, d2x, xi, third


def _torus4_jets(params, U, T, P):
    """Rotational 3-torus in R^4: circle of radius a swept over a 2-sphere
    of radius R; outward normal."""
    R = float(params.get("R", 2.0))
    a = float(params.get("a", 1.0))
    cu, su = np.cos(U), np.sin(U)
    ct, st = np.cos(T), np.sin(T)
    cp, sp = np.cos(P), np.sin(P)
    zeros = np.zeros_like(U)

    # Unit 2-sphere direction and its jets in (theta, phi).
    n = _vec(st * cp, st * sp, ct)
    nt = _vec(ct * cp, ct * sp, -st)
    npp = _vec(-st * sp, st * cp, zeros)
    ntt = -n
    ntp = _vec(-ct * sp, ct * cp, zeros)
    npp2 = _vec(-st * cp, -st * sp, zeros)

    w = R + a * cu

    def emb(scal, vec3, last):
        """(scal * vec3, last) as a 4-vector field."""
        out = np.zeros(np.broadcast_shapes(scal.shape, vec3.shape[:-1], last.shape) + (4,))
        out[..., :3] = scal[..., None] * vec3
        out[..., 3] = last
        return out

    x = emb(w, n, a * su)
    xu = emb(-a * su * np.ones_like(w), n, a * cu)
    xt = emb(w, nt, zeros)
    xp = emb(w, npp, zeros)
    xuu = emb(-a * cu * np.ones_like(w), n, -a * su)
    xut = emb(-a * su * np.ones_like(w), nt, zeros)
    xup = emb(-a * su * np.ones_like(w), npp, zeros)
    xtt = emb(w, ntt, zeros)
    xtp = emb(w, ntp, zeros)
    xpp = emb(w, npp2, zeros)

    dx = np.stack([xu, xt, xp], axis=-2)
    rows = [[xuu, xut, xup], [xut, xtt, xtp], [xup, xtp, xpp]]
    d2x = np.stack([np.stack(r, axis=-2) for r in rows], axis=-3)
    xi = emb(cu * np.ones_like(w), n, su)

    def third():
        su_w, cu_w = a * su * np.ones_like(w), a * cu * np.ones_like(w)
        return _third_from_table({
            (0, 0, 0): emb(su_w, n, -a * cu), (0, 0, 1): emb(-cu_w, nt, zeros),
            (0, 0, 2): emb(-cu_w, npp, zeros), (0, 1, 1): emb(-su_w, ntt, zeros),
            (0, 1, 2): emb(-su_w, ntp, zeros), (0, 2, 2): emb(-su_w, npp2, zeros),
            (1, 1, 1): emb(w, -nt, zeros), (1, 1, 2): emb(w, -npp, zeros),
            (1, 2, 2): emb(w, _vec(-ct * cp, -ct * sp, zeros), zeros),
            (2, 2, 2): emb(w, _vec(st * sp, -st * cp, zeros), zeros),
        }, 3)
    return x, dx, d2x, xi, third


def _catenoid_r31_jets(params, U, V):
    """Rotational maximal (zero mean curvature) surface in R^3_1:
    x = (u cos v, u sin v, arcsinh u), future-pointing time-like normal."""
    cv, sv = np.cos(V), np.sin(V)
    u = U
    zeros = np.zeros_like(U)
    t1 = (1.0 + u * u) ** -0.5
    t2 = -u * (1.0 + u * u) ** -1.5

    x = _vec(u * cv, u * sv, np.arcsinh(u))
    xu = _vec(cv, sv, t1)
    xv = _vec(-u * sv, u * cv, zeros)
    xuu = _vec(zeros, zeros, t2)
    xuv = _vec(-sv, cv, zeros)
    xvv = _vec(-u * cv, -u * sv, zeros)

    dx = np.stack([xu, xv], axis=-2)
    d2x = np.stack(
        [np.stack([xuu, xuv], axis=-2), np.stack([xuv, xvv], axis=-2)], axis=-3
    )
    xi = _vec(cv / u, sv / u, np.sqrt(1.0 + u * u) / u)

    def third():
        t3 = (2.0 * u * u - 1.0) * (1.0 + u * u) ** -2.5
        return _third_from_table({
            (0, 0, 0): _vec(zeros, zeros, t3), (0, 0, 1): np.zeros_like(x),
            (0, 1, 1): _vec(-cv, -sv, zeros), (1, 1, 1): _vec(u * sv, -u * cv, zeros),
        }, 2)
    return x, dx, d2x, xi, third


def _saddle_r30_jets(params, U, V):
    """Spacelike graph t = c u v inside the degenerate hyperplane of R^4_1,
    written as x = (t, u, v, t); normal fixed by the null-frame conditions."""
    c = float(params.get("c", 1.0))
    zeros = np.zeros_like(U)
    ones = np.ones_like(U)

    t = c * U * V
    x = _vec(t, U, V, t)
    xu = _vec(c * V, ones, zeros, c * V)
    xv = _vec(c * U, zeros, ones, c * U)
    xuv = _vec(c * ones, zeros, zeros, c * ones)
    zero4 = np.zeros_like(x)

    dx = np.stack([xu, xv], axis=-2)
    d2x = np.stack(
        [np.stack([zero4, xuv], axis=-2), np.stack([xuv, zero4], axis=-2)], axis=-3
    )
    half = 0.5 * (1.0 - c * c * (U * U + V * V))
    xi = _vec(half, -c * V, -c * U, half - 1.0)
    return x, dx, d2x, xi, lambda: np.zeros(x.shape[:-1] + (2, 2, 2, 4))


def _third_from_table(table, m):
    """Assemble the symmetric third-jet array from its distinct entries,
    keyed by sorted index triples; absent entries are zero."""
    slot = {tuple(sorted(key)): e + 1 for e, key in enumerate(table)}   # 0: zero entry
    index = np.array([[[slot.get(tuple(sorted((i, j, k))), 0) for k in range(m)]
                       for j in range(m)] for i in range(m)])
    sample = next(iter(table.values()))
    entries = np.stack([np.zeros_like(sample), *table.values()], axis=-2)
    return np.take(entries, index, axis=-2)


BUILTINS = {
    "torus": dict(space="r3", jets=_torus_jets, naxes=2,
                  default_grid=dict(u=(-np.pi / 3, np.pi / 3, 65, False),
                                    v=(0.0, 2 * np.pi, 64, True))),
    "sphere": dict(space="r3", jets=_sphere_jets, naxes=2,
                   default_grid=dict(u=(-1.0, 1.0, 33, False),
                                     v=(0.0, 2 * np.pi, 32, True))),
    "cylinder": dict(space="r3", jets=_cylinder_jets, naxes=2,
                     default_grid=dict(u=(-1.0, 1.0, 33, False),
                                       v=(0.0, 2 * np.pi, 32, True))),
    "translational_graph": dict(space="r3", jets=_graph_jets, naxes=None,
                                default_grid=dict(u=(-0.3, 0.3, 33, False),
                                                  v=(-0.3, 0.3, 33, False))),
    "torus4": dict(space="r3", jets=_torus4_jets, naxes=3,
                   default_grid=dict(u=(-np.pi / 3, np.pi / 3, 33, False),
                                     v=(np.pi / 4, 3 * np.pi / 4, 25, False),
                                     w=(0.0, 2 * np.pi, 24, True))),
    "maximal_catenoid_r31": dict(space="r31", jets=_catenoid_r31_jets, naxes=2,
                                 default_grid=dict(u=(0.5, 2.0, 65, False),
                                                   v=(0.0, 2 * np.pi, 64, True)),
                                 zero_mean_curvature=True),
    "saddle_r30": dict(space="r30", jets=_saddle_r30_jets, naxes=2,
                       default_grid=dict(u=(0.3, 1.2, 49, False),
                                         v=(0.3, 1.2, 49, False)),
                       zero_mean_curvature=True),
}


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def _parse_axes(grid_spec: dict, default: dict) -> GridAxes:
    src = default if grid_spec is None else grid_spec
    if grid_spec is None:
        names = tuple(default.keys())
        los, his, counts, periodic = zip(*(default[k] for k in names))
        return GridAxes(names, los, his, counts, periodic)
    periodic_names = set(src.get("periodic", []))
    names, los, his, counts, per = [], [], [], [], []
    for key, val in src.items():
        if key == "periodic":
            continue
        try:
            lo, hi, count = val
        except (TypeError, ValueError) as exc:
            raise UsageError(f"axis {key!r} must be [lo, hi, count]") from exc
        names.append(key)
        los.append(float(lo))
        his.append(float(hi))
        counts.append(int(count))
        per.append(key in periodic_names)
    return GridAxes(tuple(names), tuple(los), tuple(his), tuple(counts), tuple(per))


def _worst(defect: np.ndarray, ngrid: int):
    """(max value, grid index) of a defect field, skipping NaN margins."""
    if np.all(np.isnan(defect)):
        return 0.0, ()
    flatmax = np.nanmax(defect)
    idx = np.unravel_index(np.nanargmax(defect), defect.shape)[:ngrid]
    return float(flatmax), tuple(int(i) for i in idx)


def _validate_patch(patch: SurfacePatch) -> None:
    """Normal normalization, contact condition, immersion and curvature checks.

    The curvature checks are those of ``shape_data``, run by the first read
    of ``patch.shape``.  Patches whose jets came from finite differences
    carry NaN boundary margins; every check here skips those and uses a
    looser tolerance.
    """
    scale = max(1.0, float(np.abs(patch.x).max()))
    analytic = patch.metadata.get("jets") != "fd"
    tol = 1e-9 * scale if analytic else 1e-4 * scale

    xi2 = patch.dot(patch.xi, patch.xi)
    if patch.space == "r3":
        unit_defect = np.abs(xi2 - 1.0)
    elif patch.space == "r31":
        unit_defect = np.abs(xi2 + 1.0)
    else:
        unit_defect = np.abs(xi2)
        nu = nu_vector(patch.n)
        worst, idx = _worst(np.abs(np.sum(patch.form * patch.xi * nu, axis=-1) - 1.0),
                            patch.ngrid)
        if worst > 1e-9:
            raise DegenerateSurfaceError(f"normal pairing with nu differs from 1 at {idx}")
        worst, _ = _worst(np.abs(np.sum(patch.form * patch.x * nu, axis=-1)), patch.ngrid)
        if worst > 1e-9 * scale:
            raise DegenerateSurfaceError("points leave the degenerate hyperplane")
    worst, idx = _worst(unit_defect, patch.ngrid)
    if worst > tol:
        raise DegenerateSurfaceError(f"normal is not normalized at grid index {idx}")

    legendre = np.abs(fd.contract_last(patch.dx, patch.xi * patch.form))
    worst, idx = _worst(legendre, patch.ngrid)
    if worst > tol:
        raise DegenerateSurfaceError(f"contact condition dx . xi = 0 fails at grid index {idx}")

    idx = fd.nonpositive_index(patch.I)
    if idx is not None:
        raise DegenerateSurfaceError(f"not an immersion (metric degenerates) at grid index {idx}")
    patch.shape  # first read runs the curvature screening of shape_data


def build_patch(spec: dict, scheme: str = "analytic", fd_order: int = 4) -> SurfacePatch:
    """Build a validated SurfacePatch from a surface spec dictionary.

    Builtin specs: {"builtin": name, "params": {...}, "grid": {...},
    "normal": "outward"|"inward", "space": ...}.  Sample specs carry
    {"samples": {"points": ..., "normals": ...}, "grid": {...}} and get
    finite-difference jets of order ``fd_order``.
    """
    if "builtin" in spec:
        name = spec["builtin"]
        if name not in BUILTINS:
            raise UsageError(f"unknown builtin surface {name!r}")
        entry = BUILTINS[name]
        space = spec.get("space", entry["space"])
        if space != entry["space"]:
            raise UsageError(f"builtin {name!r} lives in space {entry['space']!r}")
        axes = _parse_axes(spec.get("grid"), entry["default_grid"])
        if entry["naxes"] is not None and axes.ndim != entry["naxes"]:
            raise UsageError(f"builtin {name!r} needs {entry['naxes']} parameter axes")
        grids = [g for g in axes.meshgrid()]
        params = spec.get("params", {})
        x, dx, d2x, xi, third = entry["jets"](params, *grids)

        orientation = spec.get("normal", "outward")
        if orientation not in ("outward", "inward"):
            raise UsageError("normal orientation must be 'outward' or 'inward'")
        if orientation == "inward":
            if space == "r30":
                raise UsageError("the degenerate-space normal is unique; it cannot be flipped")
            xi = -xi

        n = x.shape[-1] if space != "r30" else x.shape[-1] - 1
        patch = SurfacePatch(
            space=space, n=n, axes=axes, x=x, dx=dx, d2x=d2x, xi=xi,
            normal_jets=shape_normal_jets(third),
            metadata={"builtin": name, "params": dict(params), "jets": "analytic",
                      "normal": orientation},
        )
        _validate_patch(patch)
        if entry.get("zero_mean_curvature"):
            S = patch.S
            mean_k = np.trace(S, axis1=-2, axis2=-1) / S.shape[-1]
            if np.abs(mean_k).max() > 1e-8:
                raise DegenerateSurfaceError(
                    "mean curvature oracle failed: builtin advertised as minimal is not"
                )
        return patch

    if "samples" in spec:
        return _build_from_samples(spec, fd_order)
    raise UsageError("surface spec needs either 'builtin' or 'samples'")


def _build_from_samples(spec: dict, fd_order: int) -> SurfacePatch:
    samples = spec["samples"]
    axes = _parse_axes(spec.get("grid"), None)
    try:
        x = np.asarray(samples["points"], dtype=float)
        xi = np.asarray(samples["normals"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed samples: {exc}") from exc
    space = spec.get("space", "r3")
    if x.shape[:-1] != axes.shape or xi.shape != x.shape:
        raise UsageError("sample arrays do not match the grid shape")
    hs, per = axes.spacings, axes.periodic
    m = axes.ndim
    dx = fd.gradient(x, m, hs, per, fd_order)
    d2x = np.stack([fd.gradient(np.take(dx, a, axis=m), m, hs, per, fd_order)
                    for a in range(m)], axis=m)
    dxi = fd.gradient(xi, m, hs, per, fd_order)
    d2xi = np.stack([fd.gradient(np.take(dxi, a, axis=m), m, hs, per, fd_order)
                     for a in range(m)], axis=m)
    n = x.shape[-1] if space != "r30" else x.shape[-1] - 1
    patch = SurfacePatch(
        space=space, n=n, axes=axes, x=x, dx=dx, d2x=d2x, xi=xi,
        normal_jets=given_normal_jets(dxi, d2xi),
        metadata={"builtin": "samples", "jets": "fd", "normal": "as-given"},
    )
    _validate_samples_patch(patch)
    return patch


def _validate_samples_patch(patch: SurfacePatch) -> None:
    """Like _validate_patch, restricted to the FD-valid interior."""
    mask = fd.valid_mask(patch.ngrid, patch.dx)
    if not mask.any():
        raise UsageError("grid too small for finite-difference jets")
    scale = max(1.0, float(np.abs(patch.x).max()))
    tol = 1e-4 * scale

    xi2 = patch.dot(patch.xi, patch.xi)
    target = {"r3": 1.0, "r31": -1.0, "r30": 0.0}[patch.space]
    defect = np.abs(xi2 - target)
    if defect.max() > 1e-8 * scale:
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(defect), defect.shape))
        raise DegenerateSurfaceError(f"sampled normal is not normalized at grid index {idx}")

    legendre = np.abs(fd.contract_last(patch.dx, patch.xi * patch.form))
    worst = fd.nanmax_abs(legendre)
    if worst > tol:
        raise DegenerateSurfaceError(
            f"contact condition dx . xi = 0 fails on the sampled interior (max {worst:.3e})"
        )

    idx = fd.nonpositive_index(patch.I)
    if idx is not None:
        raise DegenerateSurfaceError(
            f"sampled patch is not an immersion on the interior at grid index {idx}"
        )
