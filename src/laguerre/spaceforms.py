"""Lorentzian and degenerate space forms and their embeddings.

Besides the Euclidean unit tangent bundle, oriented-sphere geometry lives
on two siblings:

* the unit time-like bundle of Lorentzian space R^n_1 (inner product
  +...+- with the last axis time-like), whose oriented spheres are the
  hyperboloids H(p, r) and whose hyperplanes are space-like with unit
  time-like normals;

* the bundle over the degenerate hyperplane R^n_0 inside R^{n+1}_1, cut
  out by <x, nu> = 0 with nu = (1, 0, ..., 0, 1) (``lorentz.nu``); its
  normals are null vectors normalized by <xi, nu> = 1 and its spheres are
  the paraboloids C(p).

Their elements are those of ``spheres`` with the space tag "r31" or "r30"
(``Sphere``, ``CSphere``, ``Plane``, ``ContactElement``), as patches carry
the tag of their space; each embedding here -- ``embed_element``,
``embed_sphere`` and ``embed_patch`` -- dispatches on that tag and is the
identity on "r3".  Both carry light-cone coordinates on the same quadric, with layouts that
differ from the Euclidean one only in where the radius entry sits in the
tail (``spheres.coord_tail``): last in R^n, first in R^n_1 and nowhere in
R^n_0.  The tail has signature (+, ..., +, -) in every layout, so the
kernels ``spheres.sphere_point`` and ``plane_point`` give every coordinate:
H(p, r) has tail (-r, p) and q = r^2 + <p, p>_1, C(p) has tail p and
q = <p, p>, and the planes have tails (1, xi) and xi.  The pencil of a
contact element is the point sphere of x and the tangent hyperplane of xi
in every layout.  As raw (n+3)-tuples these native coordinates literally
coincide with those of the image spheres, so the embeddings sigma
(Lorentzian) and tau (degenerate) into the Euclidean bundle are the
Euclidean read-off of the native pencil (``spheres.contact_from_pencil``),
which also rejects elements outside their domain.  Only entries 2: enter
it -- (0, x) and (1, xi) in R^n_1, x and xi in R^n_0 -- so patches push
forward with exact jets through the same read-off as the group action
(``hypersurface.patch_from_pencil``).

Every invariant of the image can be compared against its native
counterpart: radii map by r' = r xi_last + x_last, the trace-free size by
rho' = |xi_last| rho, the cone lifts by Y' = sign(xi_last) Y and
eta' = eta, hence the invariant metric is preserved.
"""

from __future__ import annotations

import numpy as np

from . import fd, lorentz
from .errors import UsageError
from .hypersurface import patch_from_pencil
from .patches import SurfacePatch
from .spheres import (ContactElement, SphereElement, classify_coord, contact_from_pencil,
                      coord_tail, sphere_coord)


# ---------------------------------------------------------------------------
# Embeddings on elements
# ---------------------------------------------------------------------------

def embed_element(c: ContactElement) -> ContactElement:
    """Euclidean image of a contact element: sigma on R^n_1, tau on R^n_0 and
    the identity on R^n.

    The read-off of the pencil entries 2:, (0, x) and (1, xi) in R^n_1 and x
    and xi in R^n_0.  With the splits x = (x0, x1), xi = (xi0, xi1) against
    the last (time-like) axis, sigma gives

        x' = (-x1/xi1, x0 - (x1/xi1) xi0),  xi' = (1/xi1, xi0/xi1),

    a Euclidean unit xi' because xi1^2 = 1 + |xi0|^2.  With x = (x1, x0, x1)
    and xi = (xi1 + 1, xi0, xi1) against the first/last split of R^{n+1}_1,
    tau gives the same x' and xi' = (1 + 1/xi1, xi0/xi1); there
    xi1 = -(1 + |xi0|^2)/2 is forced by the normalization, so the domain of
    tau excludes nothing.
    """
    if c.space == "r3":
        return c
    x, xi = contact_from_pencil(coord_tail(c.x, 0.0, c.space), coord_tail(c.xi, 1.0, c.space))
    return ContactElement(x=x, xi=xi / np.linalg.norm(xi))


def embed_sphere(s: SphereElement) -> SphereElement:
    """Euclidean sphere or hyperplane with the same quadric coordinate as a
    sphere or hyperplane of any space form (the identity on R^n): the native
    coordinates literally coincide with those of their images."""
    if s.space == "r3":
        return s
    return classify_coord(sphere_coord(s))


# ---------------------------------------------------------------------------
# Embeddings on patches (exact jets)
# ---------------------------------------------------------------------------

def embed_patch(patch: SurfacePatch) -> SurfacePatch:
    """Push a Lorentzian or degenerate patch into the Euclidean bundle.

    The image is read off the jets of the native pencil's entries 2:,
    (0, x) and (1, xi) in R^n_1 and x and xi in R^n_0; the jets are exact
    (the second ones formed when the image's are read) and the image is
    validated like any other patch.  It keeps the source's jets provenance.
    """
    if patch.space == "r3":
        return patch
    if patch.space not in ("r31", "r30"):
        raise UsageError(f"unknown space {patch.space!r}")
    sp = patch.space
    dh1, dh2 = _jet_tails(patch, 1)
    return patch_from_pencil(patch, [coord_tail(patch.x, 0.0, sp), dh1],
                             [coord_tail(patch.xi, 1.0, sp), dh2], lambda: _jet_tails(patch, 2),
                             embedded_from=sp)


def _jet_tails(patch: SurfacePatch, order: int) -> list:
    """Entries 2: of the parameter derivatives of order 1 or 2 of the pencil
    members along a patch of R^n_1 or R^n_0: the jets of x and xi, in R^n_1
    after the radius entry, which is constant along the patch, so its jets
    are a zero first row of the vector axis (the one after the ``order``
    direction axes)."""
    jets = (patch.dx, patch.dxi) if order == 1 else (patch.d2x, patch.d2xi)
    if patch.space == "r30":
        return list(jets)
    return [np.pad(j, [(1, 0) if axis == order else (0, 0) for axis in range(j.ndim)])
            for j in jets]


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
        c[2:] = lorentz.nu(n)
    else:
        raise UsageError(f"unknown space tag {space!r}")
    return c


def proposition_pairings(patch: SurfacePatch) -> dict:
    """Defects of <Y, c> = rho and <eta, c> = r in the patch's space form."""
    lift, shape = patch.lift, patch.shape
    c = distinguished_vector(patch.space, patch.n)
    return {
        "Y_pairing": fd.max_abs(lorentz.inner(lift.Y, c) - shape.rho),
        "eta_pairing": fd.max_abs(lorentz.inner(lift.eta, c) - shape.r),
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

    shape_n, shape_e, lift_n, lift_e = native.shape, embedded.shape, native.lift, embedded.lift
    xi1 = native.xi[-1]
    x1 = native.x[-1]
    # Both sets of radii sorted pointwise, component by component.
    mapped = fd.ascending([radius * xi1 + x1 for radius in shape_n.radii])
    actual = fd.ascending(list(shape_e.radii))
    report = {
        "radii_map": max(fd.max_abs(a - b) for a, b in zip(actual, mapped)),
        "rho_scaling": fd.max_abs(shape_e.rho - np.abs(xi1) * shape_n.rho),
        "Y_transfer": fd.max_abs(lift_e.Y - np.sign(xi1) * lift_n.Y),
        "eta_transfer": fd.max_abs(lift_e.eta - lift_n.eta),
        "g_transfer": fd.max_abs(embedded.g_exact - native.g_exact),
    }
    for side, patch in (("native", native), ("euclidean", embedded)):
        report.update({f"{side}_{key}": val for key, val in proposition_pairings(patch).items()})
    return report
