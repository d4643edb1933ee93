"""Oriented spheres, hyperplanes and contact elements of the three space
forms, and their light-cone coordinates.

An oriented sphere S(p, r) is the set of contact elements (x, xi) with
x - p = r xi; the sign of r records the orientation of the unit normal
(r > 0 outward, r < 0 inward, r = 0 the point sphere).  An oriented
hyperplane P(xi, lam) is the set of (x, xi) with x . xi = lam.

Both kinds map to points of the projective quadric {<g, g> = 0} in
RP^{n+2}.  Entries 2: of a coordinate, its tail t (``coord_tail``), have
the signature (+, ..., +, -) in every layout, so two kernels of the tail
give every coordinate: ``sphere_point(t) = ((1 + q)/2, (1 - q)/2, t)`` with
q = <t, t> (``lorentz.inner_1``), and ``plane_point(lam, t) = (lam, -lam, t)``.  In R^n the tails
are (p, -r) and (xi, 1):

    S(p, r)    ->  ( (1 + |p|^2 - r^2)/2, (1 - |p|^2 + r^2)/2, p, -r )
    P(xi, lam) ->  ( lam, -lam, xi, 1 )

The map is a bijection onto the quadric minus the single point [wp], which
plays the role of the point sphere at infinity.  Two elements are in
oriented contact exactly when their coordinates are orthogonal.  A contact
element (x, xi) corresponds to the projective line spanned by its point
sphere (tail (x, 0)) and its hyperplane (tail (xi, 1), lam = <x, xi>);
spheres of the pencil through (x, xi) are the combinations
gamma1 + mu * gamma2, which carry signed radius -mu.

Every element carries the tag ``space`` of its space form: "r3" for R^n
(the default), "r31" for the Lorentzian R^n_1 and "r30" for the degenerate
R^n_0 (see ``spaceforms``).  A sphere of R^n_1 is the hyperboloid H(p, r),
``Sphere(p, r, "r31")``; one of R^n_0 is the paraboloid C(p), ``CSphere(p)``,
whose radius p fixes.  Each space's normal condition is checked in one
place (``_check_normal``) for hyperplanes and contact elements alike.  The
coordinates and the pencil are written the same way in every space form;
only the place of the radius entry changes, so ``sphere_coord`` serves
every element.  What is defined for Euclidean elements only (the
tangential invariant, the contact line and the group action) rejects the
others by name (``require_euclidean``).

Every map of contact elements -- the group action and the space-form
embeddings alike -- is a linear image of the pencil followed by one
guarded read-off of the Euclidean element, ``contact_from_pencil``.

The coordinate kernels (``coord_tail``, ``sphere_point``, ``plane_point``,
``contact_pencil``, ``contact_from_pencil``) take components on axis 0,
broadcasting over trailing axes: a single element is a 1-d vector and a
grid field of patch points (d, *G) goes through the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lorentz
from .errors import (EmbeddingDomainError, InvalidCoordinateError, InvalidLineError,
                     UsageError)

UNIT_TOL = 1e-12        # |xi| = 1 in R^n
SPACEFORM_TOL = 1e-10   # the normal conditions of R^n_1 and R^n_0


def _as_float_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise UsageError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):
        raise UsageError(f"{name} has non-finite entries")
    return arr


def _check_normal(xi: np.ndarray, space: str, name: str) -> None:
    """The normal condition of each space form, shared by hyperplanes and
    contact elements: |xi| = 1 in R^n, <xi, xi> = -1 in R^n_1, and a null xi
    with <xi, nu> = 1 in R^n_0.  Raises UsageError on an unknown space tag."""
    if space == "r3":
        if abs(np.linalg.norm(xi) - 1.0) > UNIT_TOL:
            raise UsageError(f"{name} must be a unit vector")
    elif space == "r31":
        if abs(lorentz.inner_1(xi, xi) + 1.0) > SPACEFORM_TOL:
            raise UsageError(f"{name} must be unit time-like, <xi, xi> = -1")
    elif space == "r30":
        if abs(lorentz.inner_1(xi, xi)) > SPACEFORM_TOL:
            raise UsageError(f"{name} must be null")
        if abs(lorentz.inner_1(xi, lorentz.nu(xi.shape[0] - 1)) - 1.0) > SPACEFORM_TOL:
            raise UsageError(f"{name} must satisfy <xi, nu> = 1")
    else:
        raise UsageError(f"unknown space tag {space!r}")


@dataclass(frozen=True, eq=False)
class Sphere:
    """Oriented sphere with center p and signed radius r (r = 0 allowed): a
    round sphere of R^n (space "r3") or the hyperboloid H(p, r) of R^n_1
    ("r31"; r = 0 is the time-like cone).  The spheres of R^n_0 have no free
    radius and are ``CSphere``."""

    center: np.ndarray
    radius: float
    space: str = "r3"

    def __post_init__(self):
        object.__setattr__(self, "center", _as_float_vector(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not math.isfinite(self.radius):
            raise UsageError("radius must be finite")
        if self.space not in ("r3", "r31"):
            raise UsageError("a sphere of R^n_0 is a paraboloid with no free radius: "
                             "use CSphere(p)" if self.space == "r30"
                             else f"unknown space tag {self.space!r}")

    @property
    def n(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class CSphere:
    """Oriented paraboloid C(p) of the degenerate space R^n_0, p in R^{n+1}_1:
    the sphere kind of space "r30", whose radius -<p, nu> is fixed by p."""

    p: np.ndarray
    space = "r30"   # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "p", _as_float_vector(self.p, "p"))

    @property
    def n(self) -> int:
        return self.p.shape[0] - 1

    @property
    def radius(self) -> float:
        return -float(lorentz.inner_1(self.p, lorentz.nu(self.n)))


@dataclass(frozen=True, eq=False)
class Plane:
    """Oriented hyperplane x . normal = offset of R^n ("r3"), R^n_1 ("r31",
    space-like with a unit time-like normal) or R^n_0 ("r30", a null normal
    with <xi, nu> = 1), the product being that of the space.

    A normal that violates its space's condition is rejected outright
    rather than renormalized; silent fixes would hide caller bugs.
    """

    normal: np.ndarray
    offset: float
    space: str = "r3"

    def __post_init__(self):
        object.__setattr__(self, "normal", _as_float_vector(self.normal, "normal"))
        object.__setattr__(self, "offset", float(self.offset))
        _check_normal(self.normal, self.space, "plane normal")

    @property
    def n(self) -> int:
        return self.normal.shape[0] - (self.space == "r30")


@dataclass(frozen=True)
class PointAtInfinity:
    """The point sphere at infinity, the one quadric point with no element."""


SphereElement = Sphere | CSphere | Plane


@dataclass(frozen=True, eq=False)
class ContactElement:
    """A contact element (x, xi) of R^n ("r3": xi a unit vector), of the unit
    time-like bundle of R^n_1 ("r31") or of the null-normal bundle of R^n_0
    ("r30": x and xi in R^{n+1}_1, x on the hyperplane <x, nu> = 0 and xi the
    null conormal with <xi, nu> = 1)."""

    x: np.ndarray
    xi: np.ndarray
    space: str = "r3"

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_vector(self.x, "x"))
        object.__setattr__(self, "xi", _as_float_vector(self.xi, "xi"))
        if self.x.shape != self.xi.shape:
            raise UsageError("x and xi must have the same dimension")
        if self.space == "r30" and abs(lorentz.inner_1(self.x, lorentz.nu(self.n))) > (
                SPACEFORM_TOL * max(1.0, np.abs(self.x).max())):
            raise UsageError("x must lie on the degenerate hyperplane <x, nu> = 0")
        _check_normal(self.xi, self.space, "xi")

    @property
    def n(self) -> int:
        return self.x.shape[0] - (self.space == "r30")


def require_euclidean(what: str, *elements) -> None:
    """UsageError naming the space of the first element not of R^n: ``what``
    is defined for Euclidean elements only.  Objects without a space tag
    pass, for the caller's type check."""
    for e in elements:
        space = getattr(e, "space", "r3")
        if space != "r3":
            raise UsageError(f"{what} is defined in R^n only, not for an element of {space}")


def normalize_representative(vec: np.ndarray) -> np.ndarray:
    """Scale a nonzero vector so its first entry of largest magnitude is +1."""
    vec = np.asarray(vec, dtype=float)
    entries = vec.tolist()
    sizes = list(map(abs, entries))
    pivot = entries[sizes.index(max(sizes))]
    if pivot == 0.0:
        raise InvalidCoordinateError("zero vector has no projective class")
    return vec / pivot


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A point of the quadric, stored through a canonical representative.

    The representative is rescaled on construction so that its first entry
    of largest magnitude equals +1, which makes projective equality an
    ordinary comparison.  Construction rejects vectors that are not
    light-like within ``tol`` relative to the squared Euclidean norm.
    """

    vec: np.ndarray
    tol: float = field(default=1e-10, compare=False)

    def __post_init__(self):
        rep = normalize_representative(_as_float_vector(self.vec, "representative"))
        if rep.shape[0] < lorentz.MIN_BASE_DIM + 3:
            raise UsageError("representative too short for any base dimension >= 3")
        q = lorentz.inner(rep, rep)
        if abs(q) > self.tol * float(np.dot(rep, rep)):
            raise InvalidCoordinateError(f"representative is not light-like (<g,g> = {q:.3e})")
        object.__setattr__(self, "vec", rep)

    @property
    def n(self) -> int:
        return self.vec.shape[0] - 3


@dataclass(frozen=True, eq=False)
class LieLine:
    """The projective line of a contact element, spanned by its point sphere
    (gamma1) and its hyperplane (gamma2)."""

    gamma1: ProjectivePoint
    gamma2: ProjectivePoint

    def __post_init__(self):
        g1, g2 = self.gamma1.vec, self.gamma2.vec
        if g1.shape != g2.shape:
            raise UsageError("line generators must share a dimension")
        w = lorentz.wp(self.gamma1.n)
        scale = float(np.linalg.norm(g1) * np.linalg.norm(g2))
        if abs(lorentz.inner(g1, g2)) > 1e-9 * scale:
            raise InvalidLineError("generators are not mutually orthogonal")
        if abs(lorentz.inner(g2, w)) > 1e-9 * np.linalg.norm(g2):
            raise InvalidLineError("second generator must pair to zero with wp (a hyperplane)")
        if abs(lorentz.inner(g1, w)) <= 1e-9 * np.linalg.norm(g1):
            raise InvalidLineError("first generator must not pair to zero with wp (a sphere)")


def coord_tail(v, c: float, space: str = "r3") -> np.ndarray:
    """Entries 2: of a light-cone coordinate: the block v together with the
    radius entry c, which comes last in R^n ("r3"), first in R^n_1 ("r31")
    and not at all in R^n_0 ("r30")."""
    v = np.asarray(v, dtype=float)
    if space == "r30":
        return v
    out = np.empty((len(v) + 1,) + v.shape[1:])
    if space == "r3":
        out[:-1], out[-1] = v, c
    else:
        out[0], out[1:] = c, v
    return out


def _coord(first, second, tail: np.ndarray) -> np.ndarray:
    out = np.empty((len(tail) + 2,) + tail.shape[1:])
    out[0], out[1], out[2:] = first, second, tail
    return out


def sphere_point(tail) -> np.ndarray:
    """Coordinate ((1 + q)/2, (1 - q)/2, tail), q = <tail, tail>, of the sphere
    with this tail (radius entry 0: the point sphere), pairing -1 with wp."""
    tail = np.asarray(tail, dtype=float)
    q = lorentz.inner_1(tail, tail)
    return _coord(0.5 * (1.0 + q), 0.5 * (1.0 - q), tail)


def plane_point(lam, tail) -> np.ndarray:
    """Coordinate (lam, -lam, tail) of the hyperplane with offset lam and this
    tail."""
    return _coord(lam, -lam, np.asarray(tail, dtype=float))


def sphere_coord_vector(s: SphereElement) -> np.ndarray:
    """Raw light-cone representative of an oriented sphere or hyperplane of
    any space form, in the layout of its space."""
    if isinstance(s, Sphere):
        return sphere_point(coord_tail(s.center, -s.radius, s.space))
    if isinstance(s, Plane):
        return plane_point(s.offset, coord_tail(s.normal, 1.0, s.space))
    if isinstance(s, CSphere):
        return sphere_point(s.p)
    raise UsageError(f"not a sphere element: {type(s).__name__}")


def sphere_coord(s: SphereElement) -> ProjectivePoint:
    """Quadric coordinate of an oriented sphere or hyperplane of any space
    form; the coordinates of all three lie on one quadric."""
    return ProjectivePoint(sphere_coord_vector(s))


def contact_pencil(x: np.ndarray, xi: np.ndarray, space: str = "r3"):
    """The pencil (gamma1, gamma2) of contact elements (x, xi) in the layout
    of ``space``: the point sphere of x and the tangent hyperplane of xi,
    whose lam = <x, xi> is the pairing of the two tails."""
    t1, t2 = coord_tail(x, 0.0, space), coord_tail(xi, 1.0, space)
    return sphere_point(t1), plane_point(lorentz.inner_1(t1, t2), t2)


def contact_from_pencil(h1: np.ndarray, h2: np.ndarray, locate=tuple):
    """Euclidean contact elements read off entries 2: of a point-sphere
    member h1 and a hyperplane member h2 of a pencil (any layout).

    With (A, a) and (B, b) the middle block and the last entry of h1 and h2,
    x = A - (a/b) B and xi = B / b.  Where |b| is at most 1e-12 times the
    largest entry of h2 the pencil has no Euclidean element, and
    EmbeddingDomainError names the first such grid index, as ``locate``
    maps it (a patch's locator, ``patches.grid_index``).
    """
    b = h2[-1]
    bad = np.abs(b) <= 1e-12 * np.abs(h2).max(axis=0)
    if bad.any():
        idx = tuple(int(i) for i in locate(np.argwhere(bad)[0]))
        where = f" at grid index {idx}" if idx else ""
        raise EmbeddingDomainError(
            f"the pencil has no Euclidean element{where}: the last entry of its "
            "hyperplane member vanishes against the others")
    return h1[:-1] - (h1[-1] / b) * h2[:-1], h2[:-1] / b


def classify_coord(
    gamma: ProjectivePoint | np.ndarray, tol: float = 1e-10
) -> SphereElement | PointAtInfinity:
    """Invert the coordinate map: recover the element behind a quadric point.

    The sphere branch rescales the representative so it pairs to -1 with
    wp and reads the center from the middle block and the signed radius
    from (minus) the last entry.  [wp] itself returns PointAtInfinity and
    is never silently reported as a hyperplane.
    """
    if not isinstance(gamma, ProjectivePoint):
        gamma = ProjectivePoint(gamma, tol=max(tol, 1e-10))
    rep = gamma.vec
    n = rep.shape[0] - 3
    big = max(map(abs, rep.tolist()))  # rep is finite: Python's max is numpy's
    # Projective test against the improper point: kill the component along
    # it and see what is left (robust against pivot ties in normalization).
    unit = lorentz.unit_wp(n)
    residue = rep - np.dot(rep, unit) * unit
    if max(map(abs, residue.tolist())) <= max(tol, 1e-12) * max(1.0, big):
        return PointAtInfinity()
    pairing = lorentz.inner(rep, lorentz.wp(n))
    if abs(pairing) > tol * big:
        u = rep / (-pairing)
        return Sphere(center=u[2:-1], radius=-u[-1])
    last = rep[-1]
    if abs(last) <= tol * big:
        raise InvalidCoordinateError("degenerate coordinate: neither sphere, plane nor infinity")
    u = rep / last
    xi = u[2:-1]
    # Light-likeness forces |xi| = 1 up to rounding; absorb the dust so the
    # strict Plane constructor does not trip over it.
    norm = float(np.linalg.norm(xi))
    return Plane(normal=xi / norm, offset=u[0] / norm)


def oriented_contact(a: SphereElement, b: SphereElement, tol: float = 1e-9) -> bool:
    """True iff the two elements are tangent with matching orientations."""
    ga = sphere_coord(a).vec
    gb = sphere_coord(b).vec
    scale = math.sqrt(ga.dot(ga)) * math.sqrt(gb.dot(gb))  # np.linalg.norm's |ga| |gb|
    return abs(lorentz.inner(ga, gb)) <= tol * scale


def tangential_invariant(a: SphereElement, b: SphereElement) -> float:
    """Squared length of the common tangent segment of two spheres,
    |p* - p|^2 - (r* - r)^2.  Vanishes exactly at oriented contact."""
    require_euclidean("the tangential invariant", a, b)
    if not isinstance(a, Sphere) or not isinstance(b, Sphere):
        raise UsageError("the tangential invariant is defined for spheres only")
    dp = b.center - a.center
    dr = b.radius - a.radius
    return float(np.dot(dp, dp) - dr * dr)


def lie_line(c: ContactElement) -> LieLine:
    """Projective line of the sphere pencil through a contact element."""
    require_euclidean("the contact line", c)
    g1, g2 = contact_pencil(c.x, c.xi)
    return LieLine(ProjectivePoint(g1), ProjectivePoint(g2))


def contact_from_line(line: LieLine) -> ContactElement:
    """Recover (x, xi) from a contact line.

    Works for any pair of generators: the hyperplane member is the
    combination pairing to zero with wp, the point sphere the combination
    with vanishing last coordinate.
    """
    g1, g2 = line.gamma1.vec, line.gamma2.vec
    n = line.gamma1.n
    w = lorentz.wp(n)

    s1 = lorentz.inner(g1, w)
    s2 = lorentz.inner(g2, w)
    plane_rep = s1 * g2 - s2 * g1
    point_rep = g2[-1] * g1 - g1[-1] * g2
    scale = max(float(np.abs(g1).max()), float(np.abs(g2).max()))
    if np.abs(plane_rep).max() <= 1e-12 * scale or np.abs(point_rep).max() <= 1e-12 * scale:
        raise InvalidLineError("degenerate line: generators are projectively equal")

    point = classify_coord(normalize_representative(point_rep))
    plane = classify_coord(normalize_representative(plane_rep))
    if not isinstance(point, Sphere) or abs(point.radius) > 1e-9 * (1 + np.abs(point.center).max()):
        raise InvalidLineError("line does not contain a point sphere")
    if not isinstance(plane, Plane):
        raise InvalidLineError("line does not contain a hyperplane")
    return ContactElement(x=point.center, xi=plane.normal)


def element_from_json(obj: dict) -> SphereElement:
    try:
        kind = obj["kind"]
        if kind == "sphere":
            return Sphere(center=np.asarray(obj["center"], dtype=float), radius=obj["radius"])
        if kind == "plane":
            return Plane(normal=np.asarray(obj["normal"], dtype=float), offset=obj["offset"])
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed sphere element: {exc}") from exc
    raise UsageError(f"unknown sphere element kind {kind!r}")
