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
differ from the Euclidean one only in where the radius entry sits: last
in R^n, third in R^n_1 and nowhere in R^n_0.  The pencil of a contact
element is the point sphere gamma1 = ((1 + <x,x>)/2, (1 - <x,x>)/2, x) and
the tangent hyperplane gamma2 = (<x,xi>, -<x,xi>, xi), radius entry 0 and
1, in every layout.  As raw (n+3)-tuples these native coordinates
literally coincide with those of the image spheres, so the embeddings
sigma (Lorentzian) and tau (degenerate) into the Euclidean bundle are the
Euclidean read-off of the native pencil (``spheres.contact_from_pencil``).
Only entries 2: enter it -- (0, x) and (1, xi) in R^n_1, x and xi in
R^n_0 -- so patches push forward with exact jets through the same
read-off as the group action (``hypersurface.patch_from_pencil``).

Every invariant of the image can be compared against its native
counterpart: radii map by r' = r xi_last + x_last, the trace-free size by
rho' = |xi_last| rho, the cone lifts by Y' = sign(xi_last) Y and
eta' = eta, hence the invariant metric is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fd, lorentz
from .errors import EmbeddingDomainError, UsageError
from .hypersurface import patch_from_pencil
from .patches import SurfacePatch, ambient_form_diag, nu_vector
from .spheres import (ContactElement, ProjectivePoint, _as_float_vector, classify_coord,
                      contact_from_pencil, coord_tail)

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

def _embed_element(c, space: str) -> ContactElement:
    if abs(c.xi[-1]) < 1e-12:
        raise EmbeddingDomainError("xi has vanishing last component; outside the embedding domain")
    x, xi = contact_from_pencil(coord_tail(c.x, 0.0, space), coord_tail(c.xi, 1.0, space))
    return ContactElement(x=x, xi=xi / np.linalg.norm(xi))


def embed_sigma(c: ContactElementR31) -> ContactElement:
    """Embedding of the Lorentzian bundle into the Euclidean one.

    The read-off of the pencil entries 2: (0, x) and (1, xi); with the
    splits x = (x0, x1), xi = (xi0, xi1) against the last (time-like) axis

        x' = (-x1/xi1, x0 - (x1/xi1) xi0),  xi' = (1/xi1, xi0/xi1);

    xi' is automatically a Euclidean unit vector because xi1^2 = 1 + |xi0|^2.
    """
    return _embed_element(c, "r31")


def embed_tau(c: ContactElementR30) -> ContactElement:
    """Embedding of the degenerate bundle into the Euclidean one.

    The read-off of the pencil entries 2: x and xi; with x = (x1, x0, x1)
    and xi = (xi1 + 1, xi0, xi1) against the first/last split of R^{n+1}_1

        x' = (-x1/xi1, x0 - (x1/xi1) xi0),  xi' = (1 + 1/xi1, xi0/xi1);

    here xi1 = -(1 + |xi0|^2)/2 is forced by the normalization, so the
    embedding domain excludes nothing.
    """
    return _embed_element(c, "r30")


# The native coordinates of spheres and planes literally coincide with those
# of their images, so each image is the Euclidean read-off of the raw
# space-form coordinate.

def sigma_sphere_image(s: HSphere | PlaneR31):
    """Euclidean element with the same quadric coordinate as a Lorentzian one."""
    if not isinstance(s, (HSphere, PlaneR31)):
        raise UsageError("sigma maps Lorentzian elements")
    return classify_coord(spaceform_sphere_coord(s))


def tau_sphere_image(s: CSphere | PlaneR30):
    """Euclidean element with the same quadric coordinate as a degenerate one."""
    if not isinstance(s, (CSphere, PlaneR30)):
        raise UsageError("tau maps degenerate-space elements")
    return classify_coord(spaceform_sphere_coord(s))


# ---------------------------------------------------------------------------
# Embeddings on patches (exact jets)
# ---------------------------------------------------------------------------

def embed_patch(patch: SurfacePatch) -> SurfacePatch:
    """Push a Lorentzian or degenerate patch into the Euclidean bundle.

    The image is read off the jets of the native pencil's entries 2:,
    (0, x) and (1, xi) in R^n_1 and x and xi in R^n_0; the jets are exact
    and the image is validated like any other patch.
    """
    if patch.space == "r3":
        return patch
    if patch.space not in ("r31", "r30"):
        raise UsageError(f"unknown space {patch.space!r}")
    if np.min(np.abs(patch.xi[..., -1])) < 1e-12 * max(1.0, float(np.abs(patch.xi).max())):
        raise EmbeddingDomainError(
            "normal has a vanishing last component inside the patch; "
            "the embedding is undefined there"
        )
    sp = patch.space
    h1 = [coord_tail(j, 0.0, sp) for j in (patch.x, patch.dx, patch.d2x)]
    h2 = [coord_tail(j, c, sp) for j, c in ((patch.xi, 1.0), (patch.dxi, 0.0), (patch.d2xi, 0.0))]
    return patch_from_pencil(patch, h1, h2, jets=patch.metadata.get("jets", "analytic"),
                             embedded_from=sp)


# ---------------------------------------------------------------------------
# Distinguished vectors and the invariant transfer
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


def proposition_pairings(patch: SurfacePatch) -> dict:
    """Defects of <Y, c> = rho and <eta, c> = r in the patch's space form."""
    lift = patch.lift
    c = distinguished_vector(patch.space, patch.n)
    return {
        "Y_pairing": fd.nanmax_abs(lorentz.inner(lift.Y, c) - lift.rho),
        "eta_pairing": fd.nanmax_abs(lorentz.inner(lift.eta, c) - lift.r),
    }


def transfer_check(native: SurfacePatch, embedded: SurfacePatch) -> dict:
    """Numerical verification of the invariant transfer under the embedding.

    Checks, over the grid: the affine radius map, the scaling of rho, the
    literal equality of the cone lifts (Y up to the sign of the normal's
    last component, eta exactly), the equality of the invariant metrics in
    matched parameters, and the distinguished pairings on both sides.
    """
    if native.space not in ("r31", "r30"):
        raise UsageError("transfer checks start from a Lorentzian or degenerate patch")

    shape_n, shape_e = native.shape, embedded.shape
    xi1 = native.xi[..., -1]
    x1 = native.x[..., -1]

    mapped = np.sort(shape_n.radii * xi1[..., None] + x1[..., None], axis=-1)
    actual = np.sort(shape_e.radii, axis=-1)
    radii_defect = fd.nanmax_abs(actual - mapped)

    rho_defect = fd.nanmax_abs(shape_e.rho - np.abs(xi1) * shape_n.rho)

    lift_n, lift_e = native.lift, embedded.lift
    sign = np.sign(xi1)[..., None]
    Y_defect = fd.nanmax_abs(lift_e.Y - sign * lift_n.Y)
    eta_defect = fd.nanmax_abs(lift_e.eta - lift_n.eta)

    g_n = (shape_n.rho ** 2)[..., None, None] * native.third_form
    g_e = (shape_e.rho ** 2)[..., None, None] * embedded.third_form
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
