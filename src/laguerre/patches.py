"""Sampled hypersurface patches with derivative jets.

A patch stores, on a rectangular parameter grid, the immersion x, its
first parameter derivatives and the unit normal xi; the second
derivatives of x and the first and second derivatives of xi come from the
patch's jets source when they are read.  Patches live in one of three
geometries:

* "r3"  -- Euclidean R^n (ambient form +...+),
* "r31" -- Lorentzian R^n_1 (+...+-, last axis time-like, <xi, xi> = -1),
* "r30" -- the degenerate hyperplane of R^{n+1}_1: points with first
           coordinate equal to the last; the normal is the null vector
           field normalized against nu = (1, 0, ..., 0, 1).

Builtin surfaces supply the distinct partial derivatives of x to third
order analytically, as tables that one assembler (``_symmetric_jet``)
turns into symmetric derivative arrays; the normal jets are then produced
exactly through the shape operator (the relation d(xi) = -dx o S and its
derivative), so no hand-differentiated normals are needed anywhere.
Sampled ("samples") patches fall back to central finite differences for
every jet, the second jets being one gradient of the first.  Those exist
only 2r points inside each bounded end of the sampled grid (r the stencil
radius), so a sampled patch is built on that window (``fd.GridAxes.inset``)
and records the grid of its spec in ``metadata["grid"]`` (``spec_axes``);
``grid_index`` maps a patch grid index to the spec's.  The grid of a patch
carries the stencil order given to ``build_patch``; every patch mapped from
it keeps that grid and that record, so the order reaches every later
derivative and every message names indices of the spec's grid.

What a patch computes is pulled by what reads it.  The build computes x,
dx and xi and screens the patch, which reads I, II, I^{-1}, S, the
inverse Cholesky factor of I and the curvature data; each of those is a
cached value on the patch, formed once however many consumers read it.
A builtin or sampled patch holds d2x from its build, and its II is
<d2x, xi>.  A patch read off a pencil (a group image or a space-form
embedding, ``hypersurface.patch_from_pencil``) holds its first jets dx and
dxi, and its II is -<dx, dxi> (Weingarten: dxi = -dx o S), so its second
jets d2x and d2xi, and the second jets of the patch it was mapped from,
are formed only when read.  The normal jets, the third fundamental form
and the cone lift are formed on first read, and a builtin's third x-jets
only when its d2xi is read; no command reads d2xi, and no command reads
the d2x of a mapped patch.

Degeneracy policy: every patch -- builtin, sampled, group image or
space-form embedding -- is made by ``make_patch`` and passes one screen
(``_validate_patch``): normal normalization, contact condition, immersion,
and the umbilic, vanishing-curvature and curvature-label-crossing checks of
``shape_data``.  A failure inside the grid aborts the build with the
offending grid index (``grid_index``); nothing is smoothed over.  The
normalization and contact tolerances follow the jets provenance in
``metadata["jets"]`` (``SCREEN_TOL``).  Sampled input must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import fd, lorentz
from .errors import DegenerateSurfaceError, UsageError
from .spheres import contact_pencil

UMBILIC_TOL_FACTOR = 1e-8        # times patch diameter
CURVATURE_ZERO_FACTOR = 1e-10    # divided by patch diameter
CROSSING_SPIKE_FACTOR = 20.0     # kink spike over the smooth second-difference level
CROSSING_GAP_FRACTION = 0.5      # of the median gap: "locally collapsed"


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


@dataclass(eq=False)
class SurfacePatch:
    """Immutable sampled hypersurface with jets.

    Component axes lead every array and grid axes trail (the table of
    ``fd``): x and xi are (d, *G), ``dx`` (m, d, *G), ``d2x`` (m, m, d, *G)
    and likewise for the normal.

    x, dx and the normal are stored; every other field is a value computed
    on first read and then cached: ``d2x``, ``II`` and the normal jets
    ``dxi`` and ``d2xi`` (from the jets source ``jets``, see ``given_jets``,
    ``shape_jets`` and ``hypersurface.patch_from_pencil``), the first
    fundamental form ``I``, ``Iinv``, the shape operator ``S``, the inverse
    Cholesky factor ``Linv`` of I, the curvature data ``shape``,
    ``third_form``, the exact invariant metric ``g_exact``, the Euclidean
    area element ``area_element`` and the cone ``lift``.
    """

    space: str
    n: int
    axes: fd.GridAxes
    x: np.ndarray
    dx: np.ndarray
    xi: np.ndarray
    jets: Callable = field(repr=False)   # (patch, "d2x" | "II" | "dxi" | "d2xi") -> field
    metadata: dict = field(default_factory=dict)

    @property
    def form(self) -> np.ndarray:
        return ambient_form_diag(self.space, self.n)

    @property
    def ngrid(self) -> int:
        return self.axes.ndim

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ambient inner product over the component axis 0, broadcasting over
        grid axes: one form-weighted sum, as ``lorentz.inner``."""
        return np.einsum("i...,i...,i->...", u, v, self.form)

    @property
    def spec_axes(self) -> fd.GridAxes:
        """The grid of the spec: a sampled patch is the window of its jets
        inside it, every other patch covers it."""
        return self.metadata.get("grid", self.axes)

    @property
    def diameter(self) -> float:
        """Diagonal of the bounding box, one whole-grid min and max per component."""
        return float(np.linalg.norm([c.max() - c.min() for c in self.x]))

    @cached_property
    def d2x(self) -> np.ndarray:
        return self.jets(self, "d2x")

    @cached_property
    def dxi(self) -> np.ndarray:
        return self.jets(self, "dxi")

    @cached_property
    def d2xi(self) -> np.ndarray:
        return self.jets(self, "d2xi")

    @cached_property
    def I(self) -> np.ndarray:
        return first_fundamental(self)

    @cached_property
    def II(self) -> np.ndarray:
        return self.jets(self, "II")

    @cached_property
    def Iinv(self) -> np.ndarray:
        return fd.grid_inv(self.I)

    @cached_property
    def S(self) -> np.ndarray:
        """Shape operator S = I^{-1} II, the operator in d(xi) = -dx o S."""
        return np.einsum("ac...,cb...->ab...", self.Iinv, self.II)

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
    def g_exact(self) -> np.ndarray:
        """rho^2 III, the invariant metric pointwise exact."""
        return self.shape.rho ** 2 * self.third_form

    @cached_property
    def area_element(self) -> np.ndarray:
        """sqrt(det I), the Euclidean volume density in the parameters."""
        return np.sqrt(fd.grid_det(self.I))

    @cached_property
    def lift(self) -> LaguerreLift:
        return laguerre_lift(self)


def grid_index(patch: SurfacePatch, idx) -> tuple:
    """The spec's grid index of the patch grid index ``idx``: a sampled
    patch's window is centred in its spec's grid."""
    return tuple(int(i) + (c - w) // 2
                 for i, c, w in zip(idx, patch.spec_axes.counts, patch.axes.counts))


def given_jets(d2x: np.ndarray, dxi: np.ndarray, d2xi: np.ndarray) -> Callable:
    """Jets source of a patch whose second x-jets and normal jets are handed
    in; II = <d2x, xi>."""
    given = {"d2x": d2x, "dxi": dxi, "d2xi": d2xi}
    return lambda patch, name: second_fundamental(patch) if name == "II" else given[name]


def shape_jets(d2x: np.ndarray, third: Callable) -> Callable:
    """Jets source of a patch with exact x-jets d2x: II = <d2x, xi>,
    d(xi) = -dx o S, and ``_d2xi_from_shape`` with the third x-jets
    ``third()``, which are built only when d2xi is read."""
    def jets(patch, name):
        if name == "d2x":
            return d2x
        if name == "II":
            return second_fundamental(patch)
        if name == "dxi":
            return -np.einsum("cb...,ci...->bi...", patch.S, patch.dx)
        return _d2xi_from_shape(patch, third())
    return jets


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


def second_fundamental(patch: SurfacePatch) -> np.ndarray:
    """II = <d2x, xi>."""
    return fd.contract_last(patch.d2x, patch.xi, patch.form)


def weingarten_second_fundamental(patch: SurfacePatch) -> np.ndarray:
    """II = -<dx, dxi> from the first jets (Weingarten: dxi = -dx o S),
    symmetrized: exact jets make <dx_a, dxi_b> symmetric up to rounding."""
    W = fd.gram(patch.dx, patch.dxi, patch.form)
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
    net.
    """
    ngrid = patch.ngrid
    for i in range(len(vals) - 1):
        gap = vals[i] - vals[i + 1]
        med = float(np.median(gap))
        scale = fd.max_abs(vals)
        if med <= 1e-12 * scale:
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
            smooth = float(np.median(spike))
            big = spike > max(CROSSING_SPIKE_FACTOR * smooth, 1e-13 * scale)
            collapsed = gap[tuple(sl_0)] < CROSSING_GAP_FRACTION * med
            hit = big & collapsed
            if hit.any():
                idx = grid_index(patch, np.argwhere(hit)[0] + 1)
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
    # d_d I_ab = <d2x_da, dx_b> + <d2x_db, dx_a>,
    # d_d II_ab = <d3x_dab, xi> + <d2x_ab, dxi_d>.
    P = np.einsum("dai...,bi...,i->dab...", d2x, dx, form)
    dI = P + np.swapaxes(P, 1, 2)
    dII = (fd.contract_last(d3x, xi, form)
           + np.einsum("abi...,di...,i->dab...", d2x, patch.dxi, form))
    dIS = np.einsum("dae...,eb...->dab...", dI, S)
    dS = np.einsum("ga...,dab...->dgb...", patch.Iinv, dII - dIS)
    return -np.einsum("dgb...,gi...->dbi...", dS, dx) - np.einsum("gb...,dgi...->dbi...", S, d2x)


# ---------------------------------------------------------------------------
# Builtin surfaces (analytic x-jets to third order)
# ---------------------------------------------------------------------------
# Each builtin returns x, xi and the distinct partial derivatives of x as
# tables keyed by sorted index tuples (absent keys are zero): the first- and
# second-order tables and a callable giving the third-order table, which is
# built only when the third jets are read (``_symmetric_jet`` assembles them).

def _vec(*comps):
    """The vector field (d, *G) of d scalar grid fields."""
    return np.stack(comps)


def _torus_jets(params, U, V):
    R = float(params.get("R", 2.0))
    a = float(params.get("a", 1.0))
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)
    w = R + a * cu
    zeros = np.zeros_like(U)

    x = _vec(w * cv, w * sv, a * su)
    xi = _vec(cu * cv, cu * sv, su)
    first = {(0,): _vec(-a * su * cv, -a * su * sv, a * cu), (1,): _vec(-w * sv, w * cv, zeros)}
    second = {
        (0, 0): _vec(-a * cu * cv, -a * cu * sv, -a * su),
        (0, 1): _vec(a * su * sv, -a * su * cv, zeros),
        (1, 1): _vec(-w * cv, -w * sv, zeros),
    }
    return x, xi, first, second, lambda: {
        (0, 0, 0): _vec(a * su * cv, a * su * sv, -a * cu),
        (0, 0, 1): _vec(a * cu * sv, -a * cu * cv, zeros),
        (0, 1, 1): _vec(a * su * cv, a * su * sv, zeros),
        (1, 1, 1): _vec(w * sv, -w * cv, zeros),
    }


def _sphere_jets(params, U, V):
    R = float(params.get("R", 1.0))
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)
    zeros = np.zeros_like(U)

    xi = _vec(cu * cv, cu * sv, su)
    xiu = _vec(-su * cv, -su * sv, cu)
    xiv = _vec(-cu * sv, cu * cv, zeros)
    first = {(0,): R * xiu, (1,): R * xiv}
    second = {(0, 0): R * -xi, (0, 1): R * _vec(su * sv, -su * cv, zeros),
              (1, 1): R * _vec(-cu * cv, -cu * sv, zeros)}
    return R * xi, xi, first, second, lambda: {
        (0, 0, 0): R * -xiu, (0, 0, 1): R * -xiv,
        (0, 1, 1): R * _vec(su * cv, su * sv, zeros),
        (1, 1, 1): R * _vec(cu * sv, -cu * cv, zeros),
    }


def _cylinder_jets(params, U, V):
    R = float(params.get("R", 1.0))
    cv, sv = np.cos(V), np.sin(V)
    zeros = np.zeros_like(U)

    x = _vec(R * cv, R * sv, U)
    xi = _vec(cv, sv, zeros)
    first = {(0,): _vec(zeros, zeros, np.ones_like(U)), (1,): _vec(-R * sv, R * cv, zeros)}
    second = {(1, 1): _vec(-R * cv, -R * sv, zeros)}
    return x, xi, first, second, lambda: {(1, 1, 1): _vec(R * sv, -R * cv, zeros)}


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
    zeros, ones = np.zeros(shape), np.ones(shape)

    def along(i, head, last):
        """The vector (0, ..., head at i, ..., 0, last)."""
        return _vec(*(head if j == i else zeros for j in range(m)), last)

    f = sum(quad[i] * grids[i] ** 2 + cubic[i] * grids[i] ** 3 for i in range(m))
    f1 = [2 * quad[i] * grids[i] + 3 * cubic[i] * grids[i] ** 2 for i in range(m)]
    s = np.sqrt(1.0 + sum(g * g for g in f1))
    x = _vec(*grids, f)
    xi = _vec(*(-g / s for g in f1), 1.0 / s)
    first = {(i,): along(i, ones, f1[i]) for i in range(m)}
    second = {(i, i): along(i, zeros, 2 * quad[i] + 6 * cubic[i] * grids[i]) for i in range(m)}
    return x, xi, first, second, lambda: {(i, i, i): along(i, zeros, 6 * cubic[i] * ones)
                                          for i in range(m)}


def _torus4_jets(params, U, T, P):
    """Rotational 3-torus in R^4: circle of radius a swept over a 2-sphere
    of radius R; outward normal."""
    R = float(params.get("R", 2.0))
    a = float(params.get("a", 1.0))
    cu, su = np.cos(U), np.sin(U)
    ct, st = np.cos(T), np.sin(T)
    cp, sp = np.cos(P), np.sin(P)
    zeros = np.zeros_like(U)

    # Unit 2-sphere direction and its jets in (theta, phi), as components.
    n = (st * cp, st * sp, ct)
    nt = (ct * cp, ct * sp, -st)
    npp = (-st * sp, st * cp, zeros)
    ntp = (-ct * sp, ct * cp, zeros)
    npp2 = (-st * cp, -st * sp, zeros)
    neg = lambda v: tuple(-c for c in v)
    w = R + a * cu

    def emb(scal, vec3, last):
        """(scal * vec3, last) as a 4-vector field."""
        return _vec(*(scal * c for c in vec3), last)

    x = emb(w, n, a * su)
    xi = emb(cu, n, su)
    first = {(0,): emb(-a * su, n, a * cu), (1,): emb(w, nt, zeros), (2,): emb(w, npp, zeros)}
    second = {
        (0, 0): emb(-a * cu, n, -a * su), (0, 1): emb(-a * su, nt, zeros),
        (0, 2): emb(-a * su, npp, zeros), (1, 1): emb(w, neg(n), zeros),
        (1, 2): emb(w, ntp, zeros), (2, 2): emb(w, npp2, zeros),
    }
    return x, xi, first, second, lambda: {
        (0, 0, 0): emb(a * su, n, -a * cu), (0, 0, 1): emb(-a * cu, nt, zeros),
        (0, 0, 2): emb(-a * cu, npp, zeros), (0, 1, 1): emb(-a * su, neg(n), zeros),
        (0, 1, 2): emb(-a * su, ntp, zeros), (0, 2, 2): emb(-a * su, npp2, zeros),
        (1, 1, 1): emb(w, neg(nt), zeros), (1, 1, 2): emb(w, neg(npp), zeros),
        (1, 2, 2): emb(w, (-ct * cp, -ct * sp, zeros), zeros),
        (2, 2, 2): emb(w, (st * sp, -st * cp, zeros), zeros),
    }


def _catenoid_r31_jets(params, u, V):
    """Rotational maximal (zero mean curvature) surface in R^3_1:
    x = (u cos v, u sin v, arcsinh u), future-pointing time-like normal."""
    cv, sv = np.cos(V), np.sin(V)
    zeros = np.zeros_like(u)

    x = _vec(u * cv, u * sv, np.arcsinh(u))
    xi = _vec(cv / u, sv / u, np.sqrt(1.0 + u * u) / u)
    first = {(0,): _vec(cv, sv, (1.0 + u * u) ** -0.5), (1,): _vec(-u * sv, u * cv, zeros)}
    second = {(0, 0): _vec(zeros, zeros, -u * (1.0 + u * u) ** -1.5),
              (0, 1): _vec(-sv, cv, zeros), (1, 1): _vec(-u * cv, -u * sv, zeros)}
    return x, xi, first, second, lambda: {
        (0, 0, 0): _vec(zeros, zeros, (2.0 * u * u - 1.0) * (1.0 + u * u) ** -2.5),
        (0, 1, 1): _vec(-cv, -sv, zeros), (1, 1, 1): _vec(u * sv, -u * cv, zeros),
    }


def _saddle_r30_jets(params, U, V):
    """Spacelike graph t = c u v inside the degenerate hyperplane of R^4_1,
    written as x = (t, u, v, t); normal fixed by the null-frame conditions."""
    c = float(params.get("c", 1.0))
    zeros, ones = np.zeros_like(U), np.ones_like(U)

    t = c * U * V
    x = _vec(t, U, V, t)
    half = 0.5 * (1.0 - c * c * (U * U + V * V))
    xi = _vec(half, -c * V, -c * U, half - 1.0)
    first = {(0,): _vec(c * V, ones, zeros, c * V), (1,): _vec(c * U, zeros, ones, c * U)}
    second = {(0, 1): _vec(c * ones, zeros, zeros, c * ones)}
    return x, xi, first, second, lambda: {}


def _symmetric_jet(table: dict, x: np.ndarray, order: int) -> np.ndarray:
    """Symmetric derivative array (m, ..., m, d, *G) of x (d, *G) with
    ``order`` direction axes, assembled from its distinct entries ``table``
    (keyed by sorted index tuples; absent entries are zero) in one gather:
    slot (a, b, ...) holds the entry of the sorted key of (a, b, ...)."""
    m = x.ndim - 1
    slot = {tuple(sorted(key)): e + 1 for e, key in enumerate(table)}   # 0: the zero entry
    index = np.reshape([slot.get(tuple(sorted(idx)), 0) for idx in np.ndindex((m,) * order)],
                       (m,) * order)
    return np.take(np.stack([np.zeros_like(x), *table.values()]), index, axis=0)


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
# patch scale, for exact jets and for finite-difference jets (provenance
# ``metadata["jets"] == "fd"``): those hold the contact condition only to
# truncation error, while their normals are still given pointwise.
SCREEN_TOL = {"exact": (1e-9, 1e-9), "fd": (1e-8, 1e-4)}


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
    fd_jets = patch.metadata.get("jets") == "fd"
    scale = max(1.0, float(np.abs(patch.x).max()))
    unit_tol, contact_tol = SCREEN_TOL["fd" if fd_jets else "exact"]

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

    idx = fd.nonpositive_index(patch.I)
    if idx is not None:
        raise DegenerateSurfaceError(
            f"not an immersion (metric degenerates) at grid index {grid_index(patch, idx)}")
    patch.shape  # first read runs the curvature screening of shape_data


def make_patch(space: str, axes: fd.GridAxes, x: np.ndarray, dx: np.ndarray, xi: np.ndarray,
               jets: Callable, metadata: dict) -> SurfacePatch:
    """The one constructor of patches: derives n from the space, builds the
    patch and screens it (``_validate_patch``)."""
    n = len(x) - 1 if space == "r30" else len(x)
    patch = SurfacePatch(space=space, n=n, axes=axes, x=x, dx=dx, xi=xi, jets=jets,
                         metadata=metadata)
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
    x, xi, first, second, third = _builtin_jets(name, params, axes)

    orientation = spec.get("normal", "outward")
    if orientation not in ("outward", "inward"):
        raise UsageError("normal orientation must be 'outward' or 'inward'")
    if orientation == "inward":
        if space == "r30":
            raise UsageError("the degenerate-space normal is unique; it cannot be flipped")
        xi = -xi

    patch = make_patch(space, axes, x, _symmetric_jet(first, x, 1), xi,
                       shape_jets(_symmetric_jet(second, x, 2),
                                  lambda: _symmetric_jet(third(), x, 3)),
                       {"builtin": name, "params": dict(params), "jets": "analytic",
                        "normal": orientation})
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
        return BUILTINS[name]["jets"](params, *axes.meshgrid())
    except (TypeError, ValueError) as exc:   # e.g. a list where a number belongs
        raise UsageError(f"builtin params of {name!r} are not of their documented form: "
                         f"{exc}") from exc


def _build_from_samples(spec: dict, fd_order: int) -> SurfacePatch:
    """Patch of sampled points and normals on the window of its second jets,
    2r points inside each bounded end of the spec's grid."""
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
    # The samples come (*G, d); the patch stores them (d, *G).  Second jets
    # are one gradient of the first; swapping the two direction axes puts
    # d_b d_a in slot (a, b), the order of the builtin jets.  Every field is
    # cut to the window of the second jets.
    x, xi = (np.moveaxis(f, -1, 0) for f in (x, xi))
    dx, dxi = (fd.gradient(f, grid) for f in (x, xi))
    d2x, d2xi = (np.swapaxes(fd.gradient(jet, grid), 0, 1) for jet in (dx, dxi))
    x, xi, dx, dxi, d2x, d2xi = fd.crop(grid.ndim, x, xi, dx, dxi, d2x, d2xi)
    return make_patch(spec.get("space", "r3"), grid.inset(inset), x, dx, xi,
                      given_jets(d2x, dxi, d2xi),
                      {"builtin": "samples", "jets": "fd", "normal": "as-given", "grid": grid})
