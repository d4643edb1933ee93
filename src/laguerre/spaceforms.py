"""Lorentzian and degenerate space forms and their embeddings.

Besides the Euclidean unit tangent bundle, oriented-sphere geometry lives
on two siblings:

* the unit time-like bundle of Lorentzian space R^n_1 (inner product
  +...+- with the last axis time-like), whose oriented spheres are the
  hyperboloids H(p, r) and whose hyperplanes are space-like with unit
  time-like normals;

* the bundle over the degenerate hyperplane R^n_0 inside R^{n+1}_1, cut
  out by <x, nu> = 0 with nu = (1, 0, ..., 0, 1); its normals are null
  vectors normalized by <xi, nu> = 1 and its spheres are the paraboloids
  C(p).

Both carry light-cone coordinates on the same quadric, with layouts that
differ from the Euclidean one only in where the radius-like slot sits;
as raw (n+3)-tuples the coordinates literally coincide with those of the
image spheres, which is what makes the embeddings below work.

The embeddings sigma (Lorentzian) and tau (degenerate) into the Euclidean
bundle are rational in (x, xi), so patches push forward with exact jets
by the chain rule, and every invariant of the image can be compared
against its native counterpart: radii map by r' = r xi_last + x_last, the
trace-free size by rho' = |xi_last| rho, the cone lifts by Y' = sign(xi_last) Y
and eta' = eta, hence the invariant metric is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fd, lorentz, patches
from .errors import EmbeddingDomainError, UsageError
from .hypersurface import _scalar_quotient_jets, _vector_quotient_jets, laguerre_lift
from .patches import SurfacePatch, ambient_form_diag, nu_vector
from .spheres import (ContactElement, Plane, ProjectivePoint, Sphere,
                      _as_float_vector)

UNIT_TOL = 1e-10


def _form_dot(v, w, form):
    return np.sum(form * v * w, axis=-1)


@dataclass(frozen=True, eq=False)
class ContactElementR31:
    """Point of the unit time-like bundle over R^n_1."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_vector(self.x, "x"))
        object.__setattr__(self, "xi", _as_float_vector(self.xi, "xi"))
        if self.x.shape != self.xi.shape:
            raise UsageError("x and xi must share a dimension")
        form = ambient_form_diag("r31", self.n)
        if abs(_form_dot(self.xi, self.xi, form) + 1.0) > UNIT_TOL:
            raise UsageError("xi must be unit time-like, <xi, xi> = -1")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class ContactElementR30:
    """Point of the null-normal bundle over the degenerate hyperplane.

    Both x and xi live in R^{n+1}_1; x lies on the hyperplane <x, nu> = 0
    and xi is the unique null conormal with <xi, nu> = 1.
    """

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_vector(self.x, "x"))
        object.__setattr__(self, "xi", _as_float_vector(self.xi, "xi"))
        if self.x.shape != self.xi.shape:
            raise UsageError("x and xi must share a dimension")
        n = self.n
        form = ambient_form_diag("r30", n)
        nu = nu_vector(n)
        if abs(_form_dot(self.x, nu, form)) > UNIT_TOL * max(1.0, np.abs(self.x).max()):
            raise UsageError("x must lie on the degenerate hyperplane <x, nu> = 0")
        if abs(_form_dot(self.xi, self.xi, form)) > UNIT_TOL:
            raise UsageError("xi must be null")
        if abs(_form_dot(self.xi, nu, form) - 1.0) > UNIT_TOL:
            raise UsageError("xi must satisfy <xi, nu> = 1")

    @property
    def n(self) -> int:
        return self.x.shape[0] - 1


@dataclass(frozen=True, eq=False)
class HSphere:
    """Oriented hyperboloid H(p, r) in R^n_1 (r = 0: unit time-like cone)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_float_vector(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def n(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class PlaneR31:
    """Oriented space-like hyperplane in R^n_1; unit time-like normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _as_float_vector(self.normal, "normal"))
        object.__setattr__(self, "offset", float(self.offset))
        form = ambient_form_diag("r31", self.n)
        if abs(_form_dot(self.normal, self.normal, form) + 1.0) > UNIT_TOL:
            raise UsageError("plane normal must satisfy <xi, xi> = -1")

    @property
    def n(self) -> int:
        return self.normal.shape[0]


@dataclass(frozen=True, eq=False)
class CSphere:
    """Oriented paraboloid C(p) in the degenerate space, p in R^{n+1}_1."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _as_float_vector(self.p, "p"))

    @property
    def n(self) -> int:
        return self.p.shape[0] - 1

    @property
    def radius(self) -> float:
        form = ambient_form_diag("r30", self.n)
        return -float(_form_dot(self.p, nu_vector(self.n), form))


@dataclass(frozen=True, eq=False)
class PlaneR30:
    """Space-like hyperplane of the degenerate space; null normal with
    <xi, nu> = 1."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _as_float_vector(self.normal, "normal"))
        object.__setattr__(self, "offset", float(self.offset))
        n = self.n
        form = ambient_form_diag("r30", n)
        if abs(_form_dot(self.normal, self.normal, form)) > UNIT_TOL:
            raise UsageError("degenerate-space plane normal must be null")
        if abs(_form_dot(self.normal, nu_vector(n), form) - 1.0) > UNIT_TOL:
            raise UsageError("degenerate-space plane normal must pair to 1 with nu")

    @property
    def n(self) -> int:
        return self.normal.shape[0] - 1


SpaceFormSphere = HSphere | PlaneR31 | CSphere | PlaneR30


def spaceform_sphere_coord(s: SpaceFormSphere) -> ProjectivePoint:
    """Light-cone coordinate of a space-form sphere or plane."""
    if isinstance(s, HSphere):
        form = ambient_form_diag("r31", s.n)
        pp = _form_dot(s.center, s.center, form)
        r = s.radius
        vec = np.concatenate(
            [[0.5 * (1.0 + pp + r * r), 0.5 * (1.0 - pp - r * r), -r], s.center]
        )
        return ProjectivePoint(vec)
    if isinstance(s, PlaneR31):
        vec = np.concatenate([[s.offset, -s.offset, 1.0], s.normal])
        return ProjectivePoint(vec)
    if isinstance(s, CSphere):
        form = ambient_form_diag("r30", s.n)
        pp = _form_dot(s.p, s.p, form)
        vec = np.concatenate([[0.5 * (1.0 + pp), 0.5 * (1.0 - pp)], s.p])
        return ProjectivePoint(vec)
    if isinstance(s, PlaneR30):
        vec = np.concatenate([[s.offset, -s.offset], s.normal])
        return ProjectivePoint(vec)
    raise UsageError(f"not a space-form sphere: {type(s).__name__}")


# ---------------------------------------------------------------------------
# Embeddings on contact elements
# ---------------------------------------------------------------------------

def embed_sigma(c: ContactElementR31) -> ContactElement:
    """Embedding of the Lorentzian bundle into the Euclidean one.

    With the splits x = (x0, x1), xi = (xi0, xi1) against the last
    (time-like) axis:

        x' = (-x1/xi1, x0 - (x1/xi1) xi0),  xi' = (1/xi1, xi0/xi1);

    xi' is automatically a Euclidean unit vector because xi1^2 = 1 + |xi0|^2.
    """
    xi1 = c.xi[-1]
    if abs(xi1) < 1e-12:
        raise EmbeddingDomainError("xi has vanishing last component; outside the embedding domain")
    x0, x1 = c.x[:-1], c.x[-1]
    xi0 = c.xi[:-1]
    q = x1 / xi1
    new_x = np.concatenate([[-q], x0 - q * xi0])
    new_xi = np.concatenate([[1.0 / xi1], xi0 / xi1])
    return ContactElement(x=new_x, xi=new_xi / np.linalg.norm(new_xi))


def embed_tau(c: ContactElementR30) -> ContactElement:
    """Embedding of the degenerate bundle into the Euclidean one.

    With x = (x1, x0, x1) and xi = (xi1 + 1, xi0, xi1) against the
    first/last split of R^{n+1}_1:

        x' = (-x1/xi1, x0 - (x1/xi1) xi0),  xi' = (1 + 1/xi1, xi0/xi1);

    here xi1 = -(1 + |xi0|^2)/2 is forced by the normalization, so the
    embedding domain excludes nothing.
    """
    xi1 = c.xi[-1]
    if abs(xi1) < 1e-12:
        raise EmbeddingDomainError("xi has vanishing last component; outside the embedding domain")
    x0, x1 = c.x[1:-1], c.x[-1]
    xi0 = c.xi[1:-1]
    q = x1 / xi1
    new_x = np.concatenate([[-q], x0 - q * xi0])
    new_xi = np.concatenate([[1.0 + 1.0 / xi1], xi0 / xi1])
    return ContactElement(x=new_x, xi=new_xi / np.linalg.norm(new_xi))


def sigma_sphere_image(s: HSphere | PlaneR31):
    """Euclidean element with the same quadric coordinate as a Lorentzian one."""
    if isinstance(s, HSphere):
        p0, p1 = s.center[:-1], s.center[-1]
        return Sphere(center=np.concatenate([[-s.radius], p0]), radius=-p1)
    if isinstance(s, PlaneR31):
        xi1 = s.normal[-1]
        if abs(xi1) < 1e-12:
            raise EmbeddingDomainError("plane normal outside the embedding domain")
        new_xi = np.concatenate([[1.0 / xi1], s.normal[:-1] / xi1])
        return Plane(normal=new_xi / np.linalg.norm(new_xi), offset=s.offset / xi1)
    raise UsageError("sigma maps Lorentzian elements")


def tau_sphere_image(s: CSphere | PlaneR30):
    """Euclidean element with the same quadric coordinate as a degenerate one."""
    if isinstance(s, CSphere):
        r = s.radius
        p0, p1 = s.p[1:-1], s.p[-1]
        return Sphere(center=np.concatenate([[p1 - r], p0]), radius=-p1)
    if isinstance(s, PlaneR30):
        xi1 = s.normal[-1]
        new_xi = np.concatenate([[1.0 + 1.0 / xi1], s.normal[1:-1] / xi1])
        return Plane(normal=new_xi / np.linalg.norm(new_xi), offset=s.offset / xi1)
    raise UsageError("tau maps degenerate-space elements")


# ---------------------------------------------------------------------------
# Embeddings on patches (chain-rule jets)
# ---------------------------------------------------------------------------

def _reciprocal_jets(b, db, d2b):
    r = 1.0 / b
    dr = -db * (r * r)[..., None]
    d2r = (-d2b + 2.0 * db[..., :, None] * db[..., None, :] * r[..., None, None]) \
        * (r * r)[..., None, None]
    return r, dr, d2r


def embed_patch(patch: SurfacePatch) -> SurfacePatch:
    """Push a Lorentzian or degenerate patch into the Euclidean bundle.

    Jets of the image are exact (chain rule on the rational embedding
    formulas); the image is validated like any other patch.
    """
    if patch.space == "r3":
        return patch
    if patch.space not in ("r31", "r30"):
        raise UsageError(f"unknown space {patch.space!r}")

    degenerate = patch.space == "r30"
    lo = 1 if degenerate else 0  # slice where the spatial block starts

    x1, dx1, d2x1 = patch.x[..., -1], patch.dx[..., :, -1], patch.d2x[..., :, :, -1]
    xi1, dxi1, d2xi1 = patch.xi[..., -1], patch.dxi[..., :, -1], patch.d2xi[..., :, :, -1]
    x0, dx0, d2x0 = patch.x[..., lo:-1], patch.dx[..., :, lo:-1], patch.d2x[..., :, :, lo:-1]
    xi0, dxi0, d2xi0 = patch.xi[..., lo:-1], patch.dxi[..., :, lo:-1], patch.d2xi[..., :, :, lo:-1]

    if np.min(np.abs(xi1)) < 1e-12 * max(1.0, float(np.abs(patch.xi).max())):
        raise EmbeddingDomainError(
            "normal has a vanishing last component inside the patch; "
            "the embedding is undefined there"
        )

    q, dq, d2q = _scalar_quotient_jets(x1, dx1, d2x1, xi1, dxi1, d2xi1)
    first = -q
    dfirst = -dq
    d2first = -d2q
    rest = x0 - q[..., None] * xi0
    drest = dx0 - dq[..., None] * xi0[..., None, :] - q[..., None, None] * dxi0
    d2rest = (
        d2x0
        - d2q[..., None] * xi0[..., None, None, :]
        - dq[..., :, None, None] * dxi0[..., None, :, :]
        - dq[..., None, :, None] * dxi0[..., :, None, :]
        - q[..., None, None, None] * d2xi0
    )
    x = np.concatenate([first[..., None], rest], axis=-1)
    dx = np.concatenate([dfirst[..., None], drest], axis=-1)
    d2x = np.concatenate([d2first[..., None], d2rest], axis=-1)

    inv, dinv, d2inv = _reciprocal_jets(xi1, dxi1, d2xi1)
    if degenerate:
        inv = 1.0 + inv
    w, dw, d2w = _vector_quotient_jets(xi0, dxi0, d2xi0, xi1, dxi1, d2xi1)
    xi = np.concatenate([inv[..., None], w], axis=-1)
    dxi = np.concatenate([dinv[..., None], dw], axis=-1)
    d2xi = np.concatenate([d2inv[..., None], d2w], axis=-1)

    new = SurfacePatch(
        space="r3", n=patch.n, axes=patch.axes,
        x=x, dx=dx, d2x=d2x, xi=xi, dxi=dxi, d2xi=d2xi,
        metadata={**patch.metadata, "jets": patch.metadata.get("jets", "analytic"),
                  "embedded_from": patch.space},
    )
    patches._validate_patch(new)
    return new


# ---------------------------------------------------------------------------
# Native cone lifts and the distinguished vectors
# ---------------------------------------------------------------------------

def distinguished_vector(space: str, n: int) -> np.ndarray:
    """The constant vector pairing to rho with Y and to r with eta.

    Time-like (0,0,0,-1)-type for Euclidean space, space-like with the 1
    in the radius slot for the Lorentzian form, light-like (0,0,nu) for
    the degenerate one.
    """
    c = np.zeros(n + 3)
    if space == "r3":
        c[-1] = -1.0
    elif space == "r31":
        c[2] = 1.0
    elif space == "r30":
        c[2:] = nu_vector(n)
    else:
        raise UsageError(f"unknown space tag {space!r}")
    return c


def native_lift(patch: SurfacePatch):
    """(Y, eta) fields of a patch in its own space form's layout."""
    if patch.space == "r3":
        lift = laguerre_lift(patch)
        return lift.Y, lift.eta
    xdotxi = patch.dot(patch.x, patch.xi)
    xx = patch.dot(patch.x, patch.x)
    if patch.space == "r31":
        ones = np.ones_like(xdotxi)
        y = np.concatenate([xdotxi[..., None], -xdotxi[..., None],
                            ones[..., None], patch.xi], axis=-1)
        base = np.concatenate([0.5 * (1.0 + xx)[..., None], 0.5 * (1.0 - xx)[..., None],
                               np.zeros_like(xx)[..., None], patch.x], axis=-1)
    else:  # r30
        y = np.concatenate([xdotxi[..., None], -xdotxi[..., None], patch.xi], axis=-1)
        base = np.concatenate([0.5 * (1.0 + xx)[..., None], 0.5 * (1.0 - xx)[..., None],
                               patch.x], axis=-1)
    Y = patch.shape.rho[..., None] * y
    eta = base + patch.shape.r[..., None] * y
    return Y, eta


def proposition_pairings(patch: SurfacePatch) -> dict:
    """Defects of <Y, c> = rho and <eta, c> = r in the patch's space form."""
    Y, eta = native_lift(patch)
    c = distinguished_vector(patch.space, patch.n)
    return {
        "Y_pairing": fd.nanmax_abs(lorentz.inner(Y, c) - patch.shape.rho),
        "eta_pairing": fd.nanmax_abs(lorentz.inner(eta, c) - patch.shape.r),
    }


def transfer_check(native: SurfacePatch, embedded: SurfacePatch | None = None) -> dict:
    """Numerical verification of the invariant transfer under the embedding.

    Checks, over the grid: the affine radius map, the scaling of rho, the
    literal equality of the cone lifts (Y up to the sign of the normal's
    last component, eta exactly), the equality of the invariant metrics in
    matched parameters, and the distinguished pairings on both sides.
    """
    if native.space not in ("r31", "r30"):
        raise UsageError("transfer checks start from a Lorentzian or degenerate patch")
    if embedded is None:
        embedded = embed_patch(native)

    shape_n, shape_e = native.shape, embedded.shape
    xi1 = native.xi[..., -1]
    x1 = native.x[..., -1]

    mapped = np.sort(shape_n.radii * xi1[..., None] + x1[..., None], axis=-1)
    actual = np.sort(shape_e.radii, axis=-1)
    radii_defect = fd.nanmax_abs(actual - mapped)

    rho_defect = fd.nanmax_abs(shape_e.rho - np.abs(xi1) * shape_n.rho)

    Y_n, eta_n = native_lift(native)
    Y_e, eta_e = native_lift(embedded)
    sign = np.sign(xi1)[..., None]
    Y_defect = fd.nanmax_abs(Y_e - sign * Y_n)
    eta_defect = fd.nanmax_abs(eta_e - eta_n)

    III_n = fd.gram(native.dxi, native.dxi, native.form)
    III_e = fd.gram(embedded.dxi, embedded.dxi, embedded.form)
    g_n = (shape_n.rho ** 2)[..., None, None] * III_n
    g_e = (shape_e.rho ** 2)[..., None, None] * III_e
    g_defect = fd.nanmax_abs(g_e - g_n)

    report = {
        "radii_map": radii_defect,
        "rho_scaling": rho_defect,
        "Y_transfer": Y_defect,
        "eta_transfer": eta_defect,
        "g_transfer": g_defect,
    }
    for key, val in proposition_pairings(native).items():
        report[f"native_{key}"] = val
    for key, val in proposition_pairings(embedded).items():
        report[f"euclidean_{key}"] = val
    return report
