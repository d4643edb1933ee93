"""Sampled hypersurface patches with derivative jets.

A patch stores, on a rectangular parameter grid, the immersion x, its
first parameter derivatives dx, the unit normal xi and the second
fundamental form II; the first derivatives dxi of the normal are stored
when they are given and formed on first read otherwise.  Patches live in
one of three geometries:

* "r3"  -- Euclidean R^n (ambient form +...+),
* "r31" -- Lorentzian R^n_1 (+...+-, last axis time-like, <xi, xi> = -1),
* "r30" -- the degenerate hyperplane of R^{n+1}_1: points with first
           coordinate equal to the last; the normal is the null vector
           field normalized against nu = (1, 0, ..., 0, 1).

Builtin surfaces supply the distinct partial derivatives of x to second
order analytically, as tables computed on the separable (sparse)
coordinate axes of the grid: a function of one coordinate is evaluated on
that axis alone, and only the products broadcast to the grid.  The build
writes dx from the first-order table and II from the distinct
second-order entries; the normal jets are then produced exactly through
the shape operator (d(xi) = -dx o S), so no hand-differentiated normals
are needed anywhere.  Sampled ("samples") patches fall back to central
finite differences for dx and dxi, and for the second x-jets as one
gradient of dx.  Those exist only 2r points inside each bounded end of
the sampled grid (r the stencil radius), so a sampled patch is built on
that window (``fd.GridAxes.inset``) and records the grid of its spec in
``spec_axes`` (every other patch covers its spec's grid, and
``spec_axes`` is ``axes``); ``grid_index`` maps a patch grid index to the
spec's.  The grid of a patch carries the stencil order given to
``build_patch``; every patch mapped from it keeps that grid and that
record, so the order reaches every later derivative and every message
names indices of the spec's grid.

Each builder forms II once, from arrays: a builtin patch as <d2x, xi> of
each distinct entry of its second-order table, against xi weighted by the
form once, written into both slots (a, b) and (b, a), so its symmetric
second x-jets are never assembled; a sampled patch as <d2x, xi> of the
gradient of dx, after which those jets are dropped; a patch read off a
pencil (a group image or a space-form embedding,
``hypersurface.patch_from_pencil``) holds its first jets dx and dxi and
takes -<dx, dxi>, symmetrized (``weingarten_second_fundamental``;
Weingarten: dxi = -dx o S).  So no patch holds a field with two direction
axes, and a builtin's jets tables are dropped once dx and II are formed,
before the screen runs.  The screen reads I, II, the inverse Cholesky
factor of I and the curvature data.  I, its leading minors, S, the
curvature data, a builtin's dxi, the third fundamental form, g_exact and
the cone lift are cached values on the patch, formed on first read however
many consumers read it; I^{-1} and the inverse Cholesky factor, each read
only to form one cached value (S and the curvature data), are formed on
read and not held.

Degeneracy policy: every patch -- builtin, sampled, group image or
space-form embedding -- is made by ``make_patch`` and passes one screen
(``_validate_patch``): normal normalization, contact condition, immersion,
and the umbilic, vanishing-curvature and curvature-label-crossing checks of
``shape_data``.  A failure inside the grid aborts the build with the
offending grid index (``grid_index``); nothing is smoothed over.  The
normalization and contact tolerances follow the jets provenance ``jets``,
"analytic" or "fd" (``SCREEN_TOL``).  Sampled input must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fd, lorentz
from .errors import DegenerateSurfaceError, UsageError
from .spheres import contact_pencil

UMBILIC_TOL_FACTOR = 1e-8        # times patch diameter
CURVATURE_ZERO_FACTOR = 1e-10    # divided by patch diameter
CROSSING_SPIKE_FACTOR = 20.0     # kink spike over the smooth second-difference level
CROSSING_GAP_FRACTION = 0.5      # of the median gap: "locally collapsed"


def ambient_form_diag(space: str, d: int) -> np.ndarray:
    """Signature diagonal of the ambient inner product on d components:
    +...+ in R^n, +...+- in R^n_1 and in the R^{n+1}_1 that holds R^n_0."""
    if space not in ("r3", "r31", "r30"):
        raise UsageError(f"unknown space tag {space!r}")
    form = np.ones(d)
    if space != "r3":
        form[-1] = -1.0
    return form


@dataclass(eq=False)
class SurfacePatch:
    """Immutable sampled hypersurface with jets.

    Component axes lead every array and grid axes trail (the table of
    ``fd``): x and xi are (d, *G), ``dx`` and ``dxi`` (m, d, *G), ``II``
    (m, m, *G).

    x, dx, the normal and the second fundamental form ``II`` are stored,
    and so is ``dxi`` when the patch is made with it (``make_patch``),
    together with the jets provenance ``jets`` ("analytic" or "fd") and
    the grid of the spec ``spec_axes`` (``axes`` unless the patch is a
    window inside it); every other field is a value computed on first read
    and then cached: a builtin's ``dxi``, the first fundamental form ``I``,
    its leading ``minors``, the shape operator ``S``, the curvature data
    ``shape``, ``third_form``, the exact invariant metric ``g_exact``, the
    Euclidean area element ``area_element`` and the cone ``lift``.  ``Iinv``
    and the inverse Cholesky factor ``Linv`` of I are formed on each read.
    """

    space: str
    axes: fd.GridAxes
    x: np.ndarray
    dx: np.ndarray
    xi: np.ndarray
    II: np.ndarray
    jets: str
    spec_axes: fd.GridAxes | None = None

    def __post_init__(self):
        if self.spec_axes is None:
            self.spec_axes = self.axes

    @property
    def n(self) -> int:
        """Base dimension: the components of x, less the added one of R^n_0."""
        return len(self.x) - (self.space == "r30")

    @property
    def form(self) -> np.ndarray:
        return ambient_form_diag(self.space, len(self.x))

    @property
    def ngrid(self) -> int:
        return self.axes.ndim

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ambient inner product over the component axis 0, broadcasting over
        grid axes: one form-weighted sum, as ``lorentz.inner``."""
        return np.einsum("i...,i...,i->...", u, v, self.form)

    @property
    def diameter(self) -> float:
        """Diagonal of the bounding box, one whole-grid min and max per component."""
        return float(np.linalg.norm([c.max() - c.min() for c in self.x]))

    @cached_property
    def dxi(self) -> np.ndarray:
        """d(xi) = -dx o S, exact for exact x-jets; a patch made with its
        own dxi holds that instead (``make_patch``)."""
        return -np.einsum("cb...,ci...->bi...", self.S, self.dx)

    @cached_property
    def I(self) -> np.ndarray:
        return first_fundamental(self)

    @cached_property
    def minors(self) -> list:
        """Leading minors of I; the last is det I."""
        return fd.leading_minors(self.I)

    @property
    def Iinv(self) -> np.ndarray:
        """I^{-1}, formed on each read: its one reader, S, is cached."""
        return fd.grid_inv(self.I)

    @cached_property
    def S(self) -> np.ndarray:
        """Shape operator S = I^{-1} II, the operator in d(xi) = -dx o S."""
        return np.einsum("ac...,cb...->ab...", self.Iinv, self.II)

    @property
    def Linv(self) -> np.ndarray:
        """The inverse Cholesky factor of I, formed on each read: its one
        reader, the curvature data, is cached."""
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
    def g_exact(self) -> np.ndarray:
        """rho^2 III, the invariant metric pointwise exact."""
        return self.shape.rho ** 2 * self.third_form

    @cached_property
    def area_element(self) -> np.ndarray:
        """sqrt(det I), the Euclidean volume density in the parameters."""
        return np.sqrt(self.minors[-1])

    @cached_property
    def lift(self) -> LaguerreLift:
        return laguerre_lift(self)


def grid_index(patch: SurfacePatch, idx) -> tuple:
    """The spec's grid index of the patch grid index ``idx``: a sampled
    patch's window is centred in its spec's grid."""
    return tuple(int(i) + (c - w) // 2
                 for i, c, w in zip(idx, patch.spec_axes.counts, patch.axes.counts))


# ---------------------------------------------------------------------------
# Shape data and the cone lift
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ShapeData:
    """Pointwise curvature data of a patch.

    ``k`` (m, *G) holds the principal curvatures sorted descending,
    ``radii`` their reciprocals in the same order, ``r`` the mean curvature
    radius, ``rho`` the size sqrt(sum (r_i - r)^2) of the trace-free radius
    part.
    """

    k: np.ndarray
    radii: np.ndarray
    r: np.ndarray
    rho: np.ndarray


@dataclass(eq=False)
class LaguerreLift:
    """Pointwise-exact cone fields of a patch; rho and r are ``patch.shape``'s."""

    Y: np.ndarray
    eta: np.ndarray


def first_fundamental(patch: SurfacePatch) -> np.ndarray:
    return fd.gram(patch.dx, patch.dx, patch.form)


def second_fundamental(d2x: np.ndarray, xi: np.ndarray, form: np.ndarray) -> np.ndarray:
    """II = <d2x, xi>."""
    return fd.contract_last(d2x, xi, form)


def weingarten_second_fundamental(dx: np.ndarray, dxi: np.ndarray,
                                  form: np.ndarray) -> np.ndarray:
    """II = -<dx, dxi> from the first jets (Weingarten: dxi = -dx o S),
    symmetrized: exact jets make <dx_a, dxi_b> symmetric up to rounding."""
    W = fd.gram(dx, dxi, form)
    return -0.5 * (W + np.swapaxes(W, 0, 1))


def shape_data(patch: SurfacePatch) -> ShapeData:
    """Principal curvatures and radii over the whole grid.

    Raises DegenerateSurfaceError (naming a grid index) on umbilics,
    vanishing curvatures or curvature-label crossings; the excluded sets
    are part of the domain of everything downstream.
    """
    # Generalized symmetric eigenproblem II v = k I v through the Cholesky
    # factor of I.
    vals = fd.grid_eigvalsh(fd.cholesky_reduce(patch.II, patch.Linv))[::-1]

    diam = patch.diameter
    k_zero_tol = CURVATURE_ZERO_FACTOR / max(diam, 1e-300)
    flat = (np.abs(vals) <= k_zero_tol).any(axis=0)
    if flat.any():
        idx = grid_index(patch, np.argwhere(flat)[0])
        raise DegenerateSurfaceError(
            f"vanishing principal curvature at grid index {idx}"
        )

    radii = 1.0 / vals
    r = radii.mean(axis=0)
    rho = np.sqrt(np.sum((radii - r) ** 2, axis=0))
    umb_tol = UMBILIC_TOL_FACTOR * diam
    umb = rho <= umb_tol
    if umb.any():
        idx = grid_index(patch, np.argwhere(umb)[0])
        raise DegenerateSurfaceError(f"umbilic point at grid index {idx}")

    _check_crossings(vals, patch)
    return ShapeData(k=vals, radii=radii, r=r, rho=rho)


def laguerre_lift(patch: SurfacePatch) -> LaguerreLift:
    """Light-cone position Y = rho gamma2 and mean-curvature-sphere
    coordinate eta = gamma1 + r gamma2, built from the zeroth-order pencil
    (gamma1, gamma2) in the layout of the patch's own space form."""
    shape = patch.shape
    g1, y = contact_pencil(patch.x, patch.xi, patch.space)
    return LaguerreLift(Y=shape.rho * y, eta=g1 + shape.r * y)


def _check_crossings(vals: np.ndarray, patch: SurfacePatch) -> None:
    """Detect curvature-label crossings inside the grid.

    Sorted labels are continuous but kink where two curvature families
    cross, so a crossing leaves a second-difference spike on a sorted-gap
    field exactly where that gap collapses below its typical size.  Both
    signatures are required before flagging, which keeps legitimately
    wide-ranging gaps (and identically repeated curvatures) out of the
    net.  The collapse is read on the interior points, the same on every
    axis, so the spike fields are formed only for a gap that collapses
    somewhere.
    """
    ngrid = patch.ngrid
    scale = fd.max_abs(vals)
    interior = (slice(1, -1),) * ngrid
    for i in range(len(vals) - 1):
        gap = vals[i] - vals[i + 1]
        med = float(np.median(gap))
        if med <= 1e-12 * scale:
            continue  # identically degenerate pair: allowed
        collapsed = gap[interior] < CROSSING_GAP_FRACTION * med
        if not collapsed.any():
            continue
        for axis in range(ngrid):
            if gap.shape[axis] < 5:
                continue
            sl_m = list(interior)
            sl_p = list(interior)
            sl_m[axis] = slice(0, -2)
            sl_p[axis] = slice(2, None)
            spike = np.abs(
                gap[tuple(sl_p)] - 2.0 * gap[interior] + gap[tuple(sl_m)]
            )
            smooth = float(np.median(spike))
            big = spike > max(CROSSING_SPIKE_FACTOR * smooth, 1e-13 * scale)
            hit = big & collapsed
            if hit.any():
                idx = grid_index(patch, np.argwhere(hit)[0] + 1)
                raise DegenerateSurfaceError(
                    f"principal curvature crossing near grid index {idx}; "
                    "re-grid to keep curvature labels separated"
                )


# ---------------------------------------------------------------------------
# Builtin surfaces (analytic x-jets to second order)
# ---------------------------------------------------------------------------
# Each builtin takes its params, the grid shape G and the sparse coordinate
# axes of the grid (``np.meshgrid(..., indexing="ij", sparse=True)``), and
# returns x, xi and the distinct partial derivatives of x as tables keyed by
# sorted index tuples (absent keys are zero): the first- and second-order
# tables.  Functions of one coordinate run on its axis; the products
# broadcast, and each vector is written into one (d, *G) array (``_vec``).

def _vec(G, *comps):
    """The vector field (d, *G) of d components, each a number or a field
    that broadcasts to the grid shape G."""
    out = np.empty((len(comps),) + G)
    for field, comp in zip(out, comps):
        field[...] = comp
    return out


def _torus_jets(params, G, U, V):
    R = float(params.get("R", 2.0))
    a = float(params.get("a", 1.0))
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)
    w = R + a * cu

    x = _vec(G, w * cv, w * sv, a * su)
    xi = _vec(G, cu * cv, cu * sv, su)
    first = {(0,): _vec(G, -a * su * cv, -a * su * sv, a * cu), (1,): _vec(G, -w * sv, w * cv, 0.0)}
    second = {
        (0, 0): _vec(G, -a * cu * cv, -a * cu * sv, -a * su),
        (0, 1): _vec(G, a * su * sv, -a * su * cv, 0.0),
        (1, 1): _vec(G, -w * cv, -w * sv, 0.0),
    }
    return x, xi, first, second


def _sphere_jets(params, G, U, V):
    R = float(params.get("R", 1.0))
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)

    xi = _vec(G, cu * cv, cu * sv, su)
    first = {(0,): R * _vec(G, -su * cv, -su * sv, cu), (1,): R * _vec(G, -cu * sv, cu * cv, 0.0)}
    second = {(0, 0): R * -xi, (0, 1): R * _vec(G, su * sv, -su * cv, 0.0),
              (1, 1): R * _vec(G, -cu * cv, -cu * sv, 0.0)}
    return R * xi, xi, first, second


def _cylinder_jets(params, G, U, V):
    R = float(params.get("R", 1.0))
    cv, sv = np.cos(V), np.sin(V)

    x = _vec(G, R * cv, R * sv, U)
    xi = _vec(G, cv, sv, 0.0)
    first = {(0,): _vec(G, 0.0, 0.0, 1.0), (1,): _vec(G, -R * sv, R * cv, 0.0)}
    second = {(1, 1): _vec(G, -R * cv, -R * sv, 0.0)}
    return x, xi, first, second


def _graph_jets(params, G, *coords):
    """Translational graph x = (u_1, ..., u_m, sum_i f_i(u_i)) with
    f_i(t) = quad_i t^2 + cubic_i t^3, upward unit normal."""
    m = len(coords)
    if "quad" not in params and m not in (2, 3):
        raise UsageError(f"translational_graph on {m} axes needs the param 'quad': "
                         "its default is for 2 or 3 axes")
    quad = np.asarray(params.get("quad", [1.0, 0.5] if m == 2 else [1.0, 0.7, 0.4]), dtype=float)
    cubic = np.asarray(params.get("cubic", np.zeros(m)), dtype=float)
    if quad.shape != (m,) or cubic.shape != (m,):
        raise UsageError("graph coefficients must match the number of axes")

    def along(i, head, last):
        """The vector (0, ..., head at i, ..., 0, last)."""
        return _vec(G, *(head if j == i else 0.0 for j in range(m)), last)

    f = sum(quad[i] * coords[i] ** 2 + cubic[i] * coords[i] ** 3 for i in range(m))
    f1 = [2 * quad[i] * coords[i] + 3 * cubic[i] * coords[i] ** 2 for i in range(m)]
    s = np.sqrt(1.0 + sum(g * g for g in f1))
    x = _vec(G, *coords, f)
    xi = _vec(G, *(-g / s for g in f1), 1.0 / s)
    first = {(i,): along(i, 1.0, f1[i]) for i in range(m)}
    second = {(i, i): along(i, 0.0, 2 * quad[i] + 6 * cubic[i] * coords[i]) for i in range(m)}
    return x, xi, first, second


def _torus4_jets(params, G, U, T, P):
    """Rotational 3-torus in R^4: circle of radius a swept over a 2-sphere
    of radius R; outward normal."""
    R = float(params.get("R", 2.0))
    a = float(params.get("a", 1.0))
    cu, su = np.cos(U), np.sin(U)
    ct, st = np.cos(T), np.sin(T)
    cp, sp = np.cos(P), np.sin(P)

    # Unit 2-sphere direction and its jets in (theta, phi), as components.
    n = (st * cp, st * sp, ct)
    nt = (ct * cp, ct * sp, -st)
    npp = (-st * sp, st * cp, 0.0)
    ntp = (-ct * sp, ct * cp, 0.0)
    npp2 = (-st * cp, -st * sp, 0.0)
    w = R + a * cu

    def emb(scal, vec3, last):
        """(scal * vec3, last) as a 4-vector field."""
        return _vec(G, *(scal * c for c in vec3), last)

    x = emb(w, n, a * su)
    xi = emb(cu, n, su)
    first = {(0,): emb(-a * su, n, a * cu), (1,): emb(w, nt, 0.0), (2,): emb(w, npp, 0.0)}
    second = {
        (0, 0): emb(-a * cu, n, -a * su), (0, 1): emb(-a * su, nt, 0.0),
        (0, 2): emb(-a * su, npp, 0.0), (1, 1): emb(-w, n, 0.0),
        (1, 2): emb(w, ntp, 0.0), (2, 2): emb(w, npp2, 0.0),
    }
    return x, xi, first, second


def _catenoid_r31_jets(params, G, u, V):
    """Rotational maximal (zero mean curvature) surface in R^3_1:
    x = (u cos v, u sin v, arcsinh u), future-pointing time-like normal."""
    cv, sv = np.cos(V), np.sin(V)

    x = _vec(G, u * cv, u * sv, np.arcsinh(u))
    xi = _vec(G, cv / u, sv / u, np.sqrt(1.0 + u * u) / u)
    first = {(0,): _vec(G, cv, sv, (1.0 + u * u) ** -0.5), (1,): _vec(G, -u * sv, u * cv, 0.0)}
    second = {(0, 0): _vec(G, 0.0, 0.0, -u * (1.0 + u * u) ** -1.5),
              (0, 1): _vec(G, -sv, cv, 0.0), (1, 1): _vec(G, -u * cv, -u * sv, 0.0)}
    return x, xi, first, second


def _saddle_r30_jets(params, G, U, V):
    """Spacelike graph t = c u v inside the degenerate hyperplane of R^4_1,
    written as x = (t, u, v, t); normal fixed by the null-frame conditions."""
    c = float(params.get("c", 1.0))

    t = c * U * V
    x = _vec(G, t, U, V, t)
    half = 0.5 * (1.0 - c * c * (U * U + V * V))
    xi = _vec(G, half, -c * V, -c * U, half - 1.0)
    first = {(0,): _vec(G, c * V, 1.0, 0.0, c * V), (1,): _vec(G, c * U, 0.0, 1.0, c * U)}
    second = {(0, 1): _vec(G, c, 0.0, 0.0, c)}
    return x, xi, first, second


BUILTINS = {
    "torus": dict(space="r3", jets=_torus_jets, naxes=2,
                  default_grid={"u": [-np.pi / 3, np.pi / 3, 65], "v": [0.0, 2 * np.pi, 64],
                                "periodic": ["v"]}),
    "sphere": dict(space="r3", jets=_sphere_jets, naxes=2,
                   default_grid={"u": [-1.0, 1.0, 33], "v": [0.0, 2 * np.pi, 32],
                                 "periodic": ["v"]}),
    "cylinder": dict(space="r3", jets=_cylinder_jets, naxes=2,
                     default_grid={"u": [-1.0, 1.0, 33], "v": [0.0, 2 * np.pi, 32],
                                   "periodic": ["v"]}),
    "translational_graph": dict(space="r3", jets=_graph_jets, naxes=None,
                                default_grid={"u": [-0.3, 0.3, 33], "v": [-0.3, 0.3, 33]}),
    "torus4": dict(space="r3", jets=_torus4_jets, naxes=3,
                   default_grid={"u": [-np.pi / 3, np.pi / 3, 33],
                                 "v": [np.pi / 4, 3 * np.pi / 4, 25],
                                 "w": [0.0, 2 * np.pi, 24], "periodic": ["w"]}),
    "maximal_catenoid_r31": dict(space="r31", jets=_catenoid_r31_jets, naxes=2,
                                 default_grid={"u": [0.5, 2.0, 65], "v": [0.0, 2 * np.pi, 64],
                                               "periodic": ["v"]},
                                 zero_mean_curvature=True),
    "saddle_r30": dict(space="r30", jets=_saddle_r30_jets, naxes=2,
                       default_grid={"u": [0.3, 1.2, 49], "v": [0.3, 1.2, 49]},
                       zero_mean_curvature=True),
}


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def _parse_axes(grid_spec, order: int, refine: int = 1, inset: int = 0) -> fd.GridAxes:
    """Grid of a spec {"u": [lo, hi, count], ..., "periodic": [...]}; every
    axis count is multiplied by ``refine``.  With ``inset`` > 0 (sampled
    data), the grid ``inset`` points inside each bounded end must still
    hold the 6 samples of an axis."""
    if not isinstance(grid_spec, dict):
        raise UsageError("grid must be an object of axes [lo, hi, count]")
    periodic = grid_spec.get("periodic", [])
    if not isinstance(periodic, list):
        raise UsageError("grid 'periodic' must be a list of axis names")
    names, los, his, counts = [], [], [], []
    for key, val in grid_spec.items():
        if key == "periodic":
            continue
        try:
            lo, hi, count = val
            lo, hi, n = float(lo), float(hi), int(count)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"axis {key!r} must be a numeric [lo, hi, count]") from exc
        if n != count or not np.isfinite([lo, hi]).all():
            raise UsageError(f"axis {key!r} needs finite ends and an integer sample count")
        names.append(key)
        los.append(lo)
        his.append(hi)
        counts.append(n * refine)
    if inset and any(c - 2 * inset < 6 for c, key in zip(counts, names) if key not in periodic):
        raise UsageError("grid too small for finite-difference jets")
    return fd.GridAxes(tuple(names), tuple(los), tuple(his), tuple(counts),
                       tuple(key in periodic for key in names), order)


# Screen tolerances (normal normalization, contact condition), times the
# patch scale, per jets provenance: exact ("analytic") jets and
# finite-difference ("fd") jets, which hold the contact condition only to
# truncation error, while their normals are still given pointwise.
SCREEN_TOL = {"analytic": (1e-9, 1e-9), "fd": (1e-8, 1e-4)}


def _worst(defect: np.ndarray, patch: SurfacePatch):
    """(max value, spec grid index) of a nonnegative defect field."""
    idx = np.unravel_index(np.argmax(defect), defect.shape)
    return float(defect[idx]), grid_index(patch, idx)


def _validate_patch(patch: SurfacePatch) -> None:
    """The screen every patch passes: normal normalization, contact
    condition, immersion, and the curvature checks of ``shape_data`` (run by
    the first read of ``patch.shape``).  Each failure names a grid index.

    Tolerances follow the jets provenance (``SCREEN_TOL``).  Each check
    passes only where its defect is within tolerance, so a NaN defect fails
    it (and ``_worst`` names the first NaN).
    """
    scale = max(1.0, fd.max_abs(patch.x))
    unit_tol, contact_tol = SCREEN_TOL[patch.jets]

    if patch.space == "r30":
        # The patch lies in the hyperplane <x, nu> = 0 with <xi, nu> = 1.
        nu = lorentz.nu(patch.n)
        worst, idx = _worst(np.abs(patch.dot(patch.xi, nu) - 1.0), patch)
        if not worst <= 1e-9:
            raise DegenerateSurfaceError(f"normal pairing with nu is not 1 at grid index {idx}")
        worst, idx = _worst(np.abs(patch.dot(patch.x, nu)), patch)
        if not worst <= 1e-9 * scale:
            raise DegenerateSurfaceError(f"points leave the hyperplane at grid index {idx}")
    xi2 = patch.dot(patch.xi, patch.xi)   # raises UsageError on an unknown space tag
    worst, idx = _worst(np.abs(xi2 - {"r3": 1.0, "r31": -1.0, "r30": 0.0}[patch.space]), patch)
    if not worst <= unit_tol * scale:
        raise DegenerateSurfaceError(f"normal is not normalized at grid index {idx}")

    legendre = np.abs(fd.contract_last(patch.dx, patch.xi, patch.form)).max(axis=0)
    worst, idx = _worst(legendre, patch)
    if not worst <= contact_tol * scale:
        raise DegenerateSurfaceError(f"contact condition dx . xi = 0 fails at grid index {idx}")

    idx = fd.nonpositive_index(patch.I, patch.minors)
    if idx is not None:
        raise DegenerateSurfaceError(
            f"not an immersion (metric degenerates) at grid index {grid_index(patch, idx)}")
    patch.shape  # first read runs the curvature screening of shape_data


def make_patch(space: str, axes: fd.GridAxes, x: np.ndarray, dx: np.ndarray, xi: np.ndarray,
               II: np.ndarray, dxi: np.ndarray | None, jets: str,
               spec_axes: fd.GridAxes | None = None) -> SurfacePatch:
    """The one constructor of patches: builds the patch, holding ``dxi``
    when one is given (a builtin's is formed on read), and screens it
    (``_validate_patch``)."""
    patch = SurfacePatch(space, axes, x, dx, xi, II, jets, spec_axes)
    if dxi is not None:
        patch.dxi = dxi   # set in place of the cached on-read value
    _validate_patch(patch)
    return patch


def build_patch(spec: dict, fd_order: int = 4, refine: int = 1) -> SurfacePatch:
    """Build a screened SurfacePatch from a surface spec dictionary.

    Builtin specs: {"builtin": name, "params": {...}, "grid": {...},
    "normal": "outward"|"inward", "space": ...}; without "grid" the
    builtin's default grid is used.  Sample specs carry {"samples":
    {"points": ..., "normals": ...}, "grid": {...}} with finite values and
    get finite-difference jets, on the window where those exist.
    ``fd_order`` is the stencil order of the patch's grid, used for those
    jets and for every derivative taken on the patch or its images later;
    ``refine`` multiplies every axis count of a builtin's grid (a sampled
    grid is fixed).  Every patch passes the screen of ``_validate_patch``
    before it is returned.
    """
    if not isinstance(spec, dict):
        raise UsageError("surface spec must be an object")
    if "builtin" not in spec:
        if "samples" not in spec:
            raise UsageError("surface spec needs either 'builtin' or 'samples'")
        if refine != 1:
            raise UsageError("sampled data has a fixed grid; cannot refine it")
        return _build_from_samples(spec, fd_order)
    name = spec["builtin"]
    if name not in BUILTINS:
        raise UsageError(f"unknown builtin surface {name!r}")
    entry = BUILTINS[name]
    space = spec.get("space", entry["space"])
    if space != entry["space"]:
        raise UsageError(f"builtin {name!r} lives in space {entry['space']!r}")
    grid = spec.get("grid")
    axes = _parse_axes(entry["default_grid"] if grid is None else grid, fd_order, refine)
    if entry["naxes"] is not None and axes.ndim != entry["naxes"]:
        raise UsageError(f"builtin {name!r} needs {entry['naxes']} parameter axes")
    params = spec.get("params", {})
    x, xi, first, second = _builtin_jets(name, params, axes)

    orientation = spec.get("normal", "outward")
    if orientation not in ("outward", "inward"):
        raise UsageError("normal orientation must be 'outward' or 'inward'")
    if orientation == "inward":
        if space == "r30":
            raise UsageError("the degenerate-space normal is unique; it cannot be flipped")
        xi = -xi

    # dx from the first-order table; II from the distinct second-order
    # entries, each contracted once and written into both of its slots,
    # against xi weighted by the form once: the products of
    # ``second_fundamental``.
    form = ambient_form_diag(space, len(x))
    dx = np.empty((axes.ndim,) + x.shape)
    for a in range(axes.ndim):
        dx[a] = first.get((a,), 0.0)
    II = np.zeros((axes.ndim,) * 2 + axes.shape)
    xi_form = xi * form.reshape(form.shape + (1,) * axes.ndim)
    for (a, b), d2x in second.items():
        II[a, b] = II[b, a] = fd.contract_last(d2x, xi_form)
    del first, second, xi_form   # the screen runs without the jets tables
    patch = make_patch(space, axes, x, dx, xi, II, None, "analytic")
    if entry.get("zero_mean_curvature"):
        S = patch.S
        mean_k = np.abs(np.trace(S) / len(S))
        worst, idx = _worst(mean_k, patch)
        if not worst <= 1e-8:
            raise DegenerateSurfaceError(
                "mean curvature oracle failed: builtin advertised as minimal is not "
                f"(grid index {idx})"
            )
    return patch


def _builtin_jets(name: str, params, axes: fd.GridAxes) -> tuple:
    """The jets tables of builtin ``name`` with ``params`` on ``axes``.

    UsageError unless params is an object of finite numbers or lists of
    numbers (json reads 1e400 as inf and NaN as nan, and float() reads
    "nan"), each of the form its builtin reads.
    """
    if not isinstance(params, dict):
        raise UsageError("builtin 'params' must be an object")
    for key, value in params.items():
        try:
            finite = bool(np.isfinite(np.asarray(value, dtype=float)).all())
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise UsageError(f"builtin param {key!r} must be a finite number or list of numbers")
    try:
        return BUILTINS[name]["jets"](params, axes.shape,
                                      *np.meshgrid(*axes.coords(), indexing="ij", sparse=True))
    except (TypeError, ValueError) as exc:   # e.g. a list where a number belongs
        raise UsageError(f"builtin params of {name!r} are not of their documented form: "
                         f"{exc}") from exc


def _build_from_samples(spec: dict, fd_order: int) -> SurfacePatch:
    """Patch of sampled points and normals on the window of its second
    x-jets, 2r points inside each bounded end of the spec's grid."""
    samples = spec["samples"]
    inset = 2 * fd.RADIUS.get(fd_order, 0)   # an unknown order is rejected with the grid
    grid = _parse_axes(spec.get("grid"), fd_order, inset=inset)
    try:
        x = np.asarray(samples["points"], dtype=float)
        xi = np.asarray(samples["normals"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed samples: {exc}") from exc
    if x.shape[:-1] != grid.shape or xi.shape != x.shape:
        raise UsageError("sample arrays do not match the grid shape")
    bad = ~(np.isfinite(x) & np.isfinite(xi)).all(axis=-1)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise UsageError(f"sampled points or normals are not finite at grid index {idx}")
    # The samples come (*G, d); the patch stores them (d, *G).  The second
    # x-jets are one gradient of dx; swapping the two direction axes puts
    # d_b d_a in slot (a, b), the order of the builtin jets.  Every field is
    # cut to the window of the second x-jets, which only II reads.
    x, xi = (np.moveaxis(f, -1, 0) for f in (x, xi))
    dx, dxi = (fd.gradient(f, grid) for f in (x, xi))
    d2x = np.swapaxes(fd.gradient(dx, grid), 0, 1)
    x, xi, dx, dxi, d2x = fd.crop(grid.ndim, x, xi, dx, dxi, d2x)
    space = spec.get("space", "r3")
    II = second_fundamental(d2x, xi, ambient_form_diag(space, len(x)))
    return make_patch(space, grid.inset(inset), x, dx, xi, II, dxi, "fd", grid)
