"""The Laguerre transformation group.

Elements are (n+3) x (n+3) matrices preserving the Lorentzian inner
product and fixing the light-like row vector wp = (1, -1, 0, ..., 0); they
act on row vectors from the right, X -> X T, and therefore on quadric
points by [X] -> [X T].  Composition is the left-to-right matrix product.

Three generator families span the orthochronous part of the group:

* isometry(A, a)  -- the lift of the Euclidean motion x -> x A + a,
* parabolic(t)    -- the parallel flow (x, xi) -> (x + t xi, xi), which
                     shifts every signed sphere radius by t,
* hyperbolic(t)   -- the boost flow mixing the last coordinate axis of
                     R^n with the radius direction.

Every group element whose lower-right entry is >= 1 factors as
isometry * boost * parallel * isometry; ``decompose`` constructs such a
factorization and ``Factorization.reconstruct`` plays it back.

An element is validated (``lorentz.is_laguerre_matrix``) once, when a
``LaguerreTransform`` is built for a caller.  Inside this module generators,
peels and products are plain matrices from the ``_*_matrix`` builders, which
check only their parameters; ``decompose`` and ``to_blocks`` compare them
against an already validated matrix.

Everything here acts on one element, so it pays for its arithmetic, not
for grid machinery (the grid paths, chosen by the input's rank, are those
of ``lorentz`` and ``spheres``): the flow builders copy a cached identity,
``_isometry_matrix`` reads the orthogonality defect off one list, and
``decompose`` peels with one (n+2) x n product, since the peeling flows
reach the entries it reads only through a division by cosh t.

The block form: with respect to the splitting 2 + n + 1 of the ambient
coordinates, an element is determined by an O(n, 1) matrix [[A, u], [v, w]]
together with a translation vector (a, rho) in R^{n+1}; the correspondence
is an isomorphism onto the affine Lorentz group of R^{n+1}_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import lorentz
from .errors import InvalidElementError, UsageError
from .spheres import (ContactElement, ProjectivePoint, contact_from_pencil,
                      contact_pencil, require_euclidean)

BLOCK_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-10
ORTHOGONAL_TOL = 1e-10


def _read_only(x) -> np.ndarray:
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return x


@lru_cache(maxsize=None)
def _identity(size: int) -> np.ndarray:
    """The identity matrix of one size, built once; the builders copy it."""
    return _read_only(np.eye(size))


def _orthogonality_defect(A: np.ndarray) -> float:
    """max |A A^T - 1| over the entries, NaN when A holds one."""
    gram = A.dot(A.T)
    gram.reshape(-1)[:: A.shape[0] + 1] -= 1.0
    defects = list(map(abs, gram.ravel().tolist()))
    # Python's max may pass over a NaN, the sum cannot
    return math.nan if math.isnan(sum(defects)) else max(defects)


@dataclass(frozen=True, eq=False)
class LaguerreTransform:
    """A validated group element, immutable after construction: it keeps a
    read-only copy of the matrix it is given."""

    matrix: np.ndarray

    def __post_init__(self):
        M = _read_only(self.matrix)
        if not lorentz.is_laguerre_matrix(M, tol=BLOCK_TOL):
            raise InvalidElementError(
                "matrix does not preserve the inner product and fix wp"
            )
        w = float(M[-1, -1])
        v = M[-1, 2:-1]
        if abs(w * w - 1.0 - float(np.dot(v, v))) > BLOCK_TOL * max(1.0, w * w):
            raise InvalidElementError("lower-right block violates w^2 = 1 + |v|^2")
        object.__setattr__(self, "matrix", M)

    @property
    def n(self) -> int:
        return lorentz.base_dim(self.matrix)

    def then(self, other: "LaguerreTransform") -> "LaguerreTransform":
        """Composite that applies self first, then other (row action)."""
        return LaguerreTransform(self.matrix @ other.matrix)

    def inverse(self) -> "LaguerreTransform":
        """The group inverse G T^T G (T G T^T = G and G G = 1), formed by sign
        flips of T^T without rounding."""
        sig = lorentz.signature(self.n)
        return LaguerreTransform(sig[:, None] * self.matrix.T * sig)


@dataclass(frozen=True, eq=False)
class BlockData:
    """Block coordinates (A, u, v, w, a, rho) of a group element.

    [[A, u], [v, w]] must preserve the Lorentz form diag(1, ..., 1, -1) of
    R^{n+1}_1; (a, rho) is the translation part of the corresponding affine
    Lorentz motion.
    """

    A: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: float
    a: np.ndarray
    rho: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        u = np.asarray(self.u, dtype=float).reshape(-1)
        v = np.asarray(self.v, dtype=float).reshape(-1)
        a = np.asarray(self.a, dtype=float).reshape(-1)
        n = A.shape[0]
        if A.shape != (n, n) or u.shape != (n,) or v.shape != (n,) or a.shape != (n,):
            raise UsageError("inconsistent block shapes")
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A
        M[:n, n] = u
        M[n, :n] = v
        M[n, n] = self.w
        J = np.diag(np.concatenate([np.ones(n), [-1.0]]))
        defect = np.abs(M @ J @ M.T - J).max()
        if defect > BLOCK_TOL * max(1.0, float(np.abs(M).max()) ** 2):
            raise UsageError("linear block does not preserve the Lorentz form of R^{n+1}_1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _isometry_matrix(A: np.ndarray, a: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    a = np.asarray(a, dtype=float).reshape(-1)
    n = a.shape[0]
    if A.shape != (n, n):
        raise UsageError("rotation block and translation have inconsistent sizes")
    if _orthogonality_defect(A) > ORTHOGONAL_TOL:
        raise UsageError("rotation block must be orthogonal")
    h = 0.5 * float(np.dot(a, a))
    M = np.zeros((n + 3, n + 3))
    M[0, 0] = 1.0 + h
    M[0, 1] = -h
    M[1, 0] = h
    M[1, 1] = 1.0 - h
    M[:2, 2:-1] = a
    Aa = A.dot(a)
    M[2:-1, 0] = Aa
    M[2:-1, 1] = -Aa
    M[2:-1, 2:-1] = A
    M[-1, -1] = 1.0
    return M


def _parabolic_matrix(t: float, n: int) -> np.ndarray:
    t = float(t)
    if not math.isfinite(t):
        raise UsageError("flow parameter must be finite")
    h = 0.5 * t * t
    M = _identity(n + 3).copy()
    M[0, 0] = 1.0 - h
    M[0, 1] = h
    M[0, -1] = -t
    M[1, 0] = -h
    M[1, 1] = 1.0 + h
    M[1, -1] = -t
    M[-1, 0] = t
    M[-1, 1] = -t
    return M


def _hyperbolic_matrix(t: float, n: int) -> np.ndarray:
    t = float(t)
    if not math.isfinite(t):
        raise UsageError("flow parameter must be finite")
    c, s = float(np.cosh(t)), float(np.sinh(t))
    M = _identity(n + 3).copy()
    M[-2, -2] = c
    M[-2, -1] = s
    M[-1, -2] = s
    M[-1, -1] = c
    return M


def isometry(A: np.ndarray, a: np.ndarray) -> LaguerreTransform:
    """Lift of the Euclidean isometry x -> x A + a (A orthogonal)."""
    return LaguerreTransform(_isometry_matrix(A, a))


def parabolic(t: float, n: int) -> LaguerreTransform:
    """Parallel flow shifting every signed radius by t."""
    return LaguerreTransform(_parabolic_matrix(t, n))


def hyperbolic(t: float, n: int) -> LaguerreTransform:
    """Boost flow in the plane of the last space axis and the radius slot."""
    return LaguerreTransform(_hyperbolic_matrix(t, n))


def generator(kind: str, n: int | None = None, **params) -> LaguerreTransform:
    """Dispatch on generator kind: 'isometry', 'parabolic' or 'hyperbolic'."""
    if kind == "isometry":
        return isometry(params["A"], params["a"])
    if kind not in ("parabolic", "hyperbolic"):
        raise UsageError(f"unknown generator kind {kind!r}")
    if n is None:
        raise UsageError(f"{kind} generator needs the base dimension n")
    return (parabolic if kind == "parabolic" else hyperbolic)(params["t"], n)


def _blocks_matrix(b: BlockData) -> np.ndarray:
    n = b.n
    s = float(np.dot(b.a, b.a))
    r2 = b.rho * b.rho
    M = np.zeros((n + 3, n + 3))
    M[0, 0] = 1.0 + 0.5 * s - 0.5 * r2
    M[0, 1] = -0.5 * s + 0.5 * r2
    M[0, 2:-1] = b.a
    M[0, -1] = b.rho
    M[1, 0] = 0.5 * s - 0.5 * r2
    M[1, 1] = 1.0 - 0.5 * s + 0.5 * r2
    M[1, 2:-1] = b.a
    M[1, -1] = b.rho
    Aa = b.A @ b.a
    M[2:-1, 0] = Aa - b.rho * b.u
    M[2:-1, 1] = -Aa + b.rho * b.u
    M[2:-1, 2:-1] = b.A
    M[2:-1, -1] = b.u
    va = float(np.dot(b.v, b.a))
    M[-1, 0] = va - b.rho * b.w
    M[-1, 1] = -va + b.rho * b.w
    M[-1, 2:-1] = b.v
    M[-1, -1] = b.w
    return M


def from_blocks(b: BlockData) -> LaguerreTransform:
    """Assemble the group element with the given block coordinates."""
    return LaguerreTransform(_blocks_matrix(b))


def to_blocks(T: LaguerreTransform | np.ndarray) -> BlockData:
    """Extract the block coordinates of a group element.

    The redundant entries of the matrix are checked against the assembled
    form; a mismatch means the matrix is not in the group.
    """
    if not isinstance(T, LaguerreTransform):
        T = LaguerreTransform(T)
    M = T.matrix
    blocks = BlockData(
        A=M[2:-1, 2:-1],
        u=M[2:-1, -1],
        v=M[-1, 2:-1],
        w=M[-1, -1],
        a=M[0, 2:-1],
        rho=M[0, -1],
    )
    rebuilt = _blocks_matrix(blocks)
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(rebuilt - M).max() > RECONSTRUCTION_TOL * scale:
        raise InvalidElementError("matrix entries are inconsistent with the block form")
    return blocks


def act_on_coord(T: LaguerreTransform, gamma: ProjectivePoint) -> ProjectivePoint:
    """Image of a quadric point, [gamma] -> [gamma T]."""
    if gamma.n != T.n:
        raise UsageError("transform and coordinate have different base dimensions")
    return ProjectivePoint(gamma.vec.dot(T.matrix))


def act_on_contact(T: LaguerreTransform, c: ContactElement) -> ContactElement:
    """Image of a contact element under the group action.

    Maps the pencil generators through T and reads the element off the
    image line (``spheres.contact_from_pencil``, which raises
    EmbeddingDomainError when the image line has no Euclidean element).
    """
    require_euclidean("the group action", c)
    if c.n != T.n:
        raise UsageError("transform and contact element have different base dimensions")
    h1, h2 = (g @ T.matrix for g in contact_pencil(c.x, c.xi))
    x, xi = contact_from_pencil(h1[2:], h2[2:])
    return ContactElement(x=x, xi=xi)


@dataclass(frozen=True, eq=False)
class Factorization:
    """T = epsilon * isometry(sigma2) * boost(t) * parallel(s) * isometry(sigma1),
    kept as read-only copies of its arrays whose product is formed once."""

    epsilon: int
    A2: np.ndarray
    a2: np.ndarray
    t: float
    s: float
    A1: np.ndarray
    a1: np.ndarray
    _product: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("A2", "a2", "A1", "a1"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        prod = (
            _isometry_matrix(self.A2, self.a2)
            .dot(_hyperbolic_matrix(self.t, self.n))
            .dot(_parabolic_matrix(self.s, self.n))
            .dot(_isometry_matrix(self.A1, self.a1))
        )
        object.__setattr__(self, "_product", _read_only(self.epsilon * prod))

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    def reconstruct(self) -> np.ndarray:
        """The matrix epsilon * T(sigma2) T(psi_t) T(phi_s) T(sigma1), read-only."""
        return self._product


def _rotation_to_last_axis(v: np.ndarray, norm: float) -> np.ndarray:
    """Orthogonal matrix H (acting on rows) with v H = norm e_last, given
    norm = |v|.

    Householder reflection through the bisector of v/|v| and e_last; the
    identity when v already points along the last axis.  The last entry of
    the mirror w = v/|v| - e_last is formed as -|w_perp|^2 / (1 + v_last/|v|)
    when v_last > 0, where the difference v_last/|v| - 1 would cancel.
    """
    n = v.shape[0]
    if norm == 0.0:
        return np.eye(n)
    w = v / norm
    if w[-1] > 0.0:
        w[-1] = -float(w[:-1].dot(w[:-1])) / (1.0 + w[-1])
    else:
        w[-1] -= 1.0
    wn = float(w.dot(w))
    if wn < 1e-28:
        return np.eye(n)
    return _identity(n) - 2.0 * np.outer(w, w) / wn


def decompose(T: LaguerreTransform | np.ndarray, tol: float = RECONSTRUCTION_TOL) -> Factorization:
    """Factor a group element into isometry * boost * parallel * isometry.

    Follows the constructive proof: read (v, w) off the last row, rotate v
    onto the last axis, peel off the parallel and boost parts, and read the
    leftover isometry.  The boost parameter is fixed by cosh t = |w| with
    sinh t >= 0; this makes the (non-unique) factorization deterministic.

    Elements whose lower-right entry w is <= -1 fix wp but are not products
    of the generator families (all generators have orthochronous Lorentz
    blocks), so the final verification fails and an error is raised.
    """
    if not isinstance(T, LaguerreTransform):
        T = LaguerreTransform(T)
    M = T.matrix
    n = T.n
    eps = -1 if M[-1, -1] < 0 else 1
    W = eps * M

    v = W[-1, 2:-1]
    norm = math.sqrt(float(v.dot(v)))  # |v| as np.linalg.norm forms it
    H = _rotation_to_last_axis(v, norm)
    t = float(np.arcsinh(norm))
    s = float(W[-1, 0] / W[-1, -1])

    # Peeling the rotation H, the parallel flow phi_{-s} and the boost psi_{-t}
    # off the right of W leaves sigma2, whose A2 and a2 are rows 2:-1 and row 0
    # of its columns 2:-1.  Of these columns the flow moves none and the boost
    # only the last, mixing it with column -1.  Column -1 of sigma2 is 0 above
    # its last row, so there the boost's peel is a division by cosh t: read that
    # way, it cancels nothing.  Row 1 comes along to keep the product one slice.
    peeled = W[:-1, 2:-1].dot(H)
    peeled[:, -1] /= np.cosh(t)
    A2 = peeled[2:]
    a2 = peeled[0]
    orthogonality = _orthogonality_defect(A2)
    if not orthogonality <= ORTHOGONAL_TOL:
        G = lorentz.signature_matrix(n)
        membership = float(np.abs(M @ G @ M.T - G).max())
        reversed_time = " (non-orthochronous Lorentz block)" if eps < 0 else ""
        raise InvalidElementError(
            "element is not a product of isometries and flows: the peeled rotation block "
            f"is orthogonal only to {orthogonality:.1e} (ORTHOGONAL_TOL {ORTHOGONAL_TOL:g}); "
            f"the element's own membership defect |T G T^T - G| is {membership:.1e}"
            f"{reversed_time}"
        )
    fact = Factorization(epsilon=eps, A2=A2, a2=a2, t=t, s=s, A1=H.T, a1=np.zeros(n))
    scale = max(1.0, float(np.abs(M).max()))
    if not np.abs(fact.reconstruct() - M).max() <= tol * scale:
        raise InvalidElementError(
            "factorization does not reproduce the element; "
            "it lies outside the subgroup generated by the three flows"
        )
    return fact


def compose_script(script, n: int | None = None) -> LaguerreTransform:
    """Build a transform from a JSON-style script, composing left to right.

    Accepts either a bare list of factor objects or a wrapper
    {"n": ..., "factors": [...]}.  Factor kinds: isometry (A, a),
    parabolic (t), hyperbolic (t), matrix (rows).
    """
    if isinstance(script, dict):
        n = script.get("n", n)
        script = script.get("factors")
    if not isinstance(script, list) or not script:
        raise UsageError("transform script must be a nonempty list of factors")

    result: LaguerreTransform | None = None
    try:
        if n is None:
            for item in script:
                if item.get("kind") == "isometry":
                    n = len(item["a"])
                elif item.get("kind") == "matrix":
                    n = len(item["rows"]) - 3
                if n is not None:
                    break
        if n is None:
            raise UsageError("cannot infer the base dimension; add an explicit \"n\"")
        for item in script:
            kind = item["kind"]
            if kind == "matrix":
                factor = LaguerreTransform(np.asarray(item["rows"], dtype=float))
            else:
                factor = generator(kind, n, **{k: v for k, v in item.items() if k != "kind"})
            result = factor if result is None else result.then(factor)
    except (AttributeError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed factor in transform script: {exc}") from exc
    return result


def random_transform(
    rng: np.random.Generator,
    n: int,
    factors: int = 4,
    translation_scale: float = 1.0,
    flow_scale: float = 0.4,
) -> LaguerreTransform:
    """Seeded random composite of all three generator kinds (for testing)."""
    M: np.ndarray | None = None
    kinds = rng.integers(0, 3, size=factors)
    # Make sure each family shows up at least once when there is room.
    if factors >= 3:
        kinds[:3] = [0, 1, 2]
    for kind in kinds:
        if kind == 0:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            factor = _isometry_matrix(Q, translation_scale * rng.standard_normal(n))
        elif kind == 1:
            factor = _parabolic_matrix(flow_scale * rng.standard_normal(), n)
        else:
            factor = _hyperbolic_matrix(flow_scale * rng.standard_normal(), n)
        M = factor if M is None else M.dot(factor)
    return LaguerreTransform(M)
