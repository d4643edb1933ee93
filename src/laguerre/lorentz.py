"""Linear algebra of the Lorentzian space R^{n+3}_2.

Vectors are plain numpy arrays of length n + 3, where n >= 3 is the
dimension of the base Euclidean space and the inner product has signature
(-, +, ..., +, -):

    <X, Y> = -X_1 Y_1 + X_2 Y_2 + ... + X_{n+2} Y_{n+2} - X_{n+3} Y_{n+3}.

Conventions:

* Vectors act as rows, so a matrix T acts by X -> X T and composition of
  transformations is the left-to-right matrix product.
* The distinguished light-like vector fixed by the whole transformation
  group is wp = (1, -1, 0, ..., 0).
* Vectors and grid fields of vectors carry their components on axis 0,
  broadcasting over trailing axes: a single element is a 1-d vector and a
  grid field is (n + 3, *G), and one kernel serves both.
* Tolerances are relative to a natural scale (Euclidean norm of the vector,
  max-norm of the matrix); the package-wide default is 1e-9.
* ``inner_1`` is the product (+, ..., +, -) of R^k_1, which the space
  forms and the entries 2: of a light-cone coordinate share.
* The per-dimension constants ``signature(n)``, ``signature_matrix(n)``,
  ``wp(n)``, ``unit_wp(n)`` and ``nu(n)`` are built once per n and shared
  by every caller, so they are read-only: a caller that needs to write
  copies first.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UsageError

DEFAULT_TOL = 1e-9

MIN_BASE_DIM = 3


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def signature(n: int) -> np.ndarray:
    """Diagonal of the inner product on R^{n+3}_2 as a vector (read-only)."""
    if n < MIN_BASE_DIM:
        raise UsageError(f"base dimension must be >= {MIN_BASE_DIM}, got {n}")
    sig = np.ones(n + 3)
    sig[0] = -1.0
    sig[-1] = -1.0
    return _read_only(sig)


@lru_cache(maxsize=None)
def signature_matrix(n: int) -> np.ndarray:
    """The Gram matrix diag(-1, +1, ..., +1, -1) of size n + 3 (read-only)."""
    return _read_only(np.diag(signature(n)))


@lru_cache(maxsize=None)
def wp(n: int) -> np.ndarray:
    """The distinguished light-like row vector (1, -1, 0, ..., 0) (read-only)."""
    v = np.zeros(n + 3)
    v[0] = 1.0
    v[1] = -1.0
    return _read_only(v)


@lru_cache(maxsize=None)
def unit_wp(n: int) -> np.ndarray:
    """wp(n) scaled to unit Euclidean norm (read-only)."""
    return _read_only(wp(n) / np.linalg.norm(wp(n)))


@lru_cache(maxsize=None)
def nu(n: int) -> np.ndarray:
    """The null direction (1, 0, ..., 0, 1) of R^{n+1}_1 that cuts out the
    degenerate space R^n_0 as <x, nu> = 0 (read-only)."""
    v = np.zeros(n + 1)
    v[0] = 1.0
    v[-1] = 1.0
    return _read_only(v)


def base_dim(vec_or_mat: np.ndarray) -> int:
    """Base dimension n recovered from an ambient vector or square matrix."""
    size = np.asarray(vec_or_mat).shape[-1]
    n = size - 3
    if n < MIN_BASE_DIM:
        raise UsageError(f"ambient size {size} is too small (need >= {MIN_BASE_DIM + 3})")
    return n


def inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray | float:
    """Inner product <X, Y> of signature (-, +, ..., +, -).

    Components on axis 0, broadcasting over trailing axes, so it applies
    equally to single vectors and to grid fields (d, *G).  One signature-
    weighted sum over the component axis, the form ``fd.gram`` takes: the
    weights are +-1, so each product is exact however it is grouped, and
    the sum runs in component order for every point alike.  Two 1-d
    vectors give a float, the same sum taken over Python floats without the
    einsum set-up.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] != Y.shape[0]:
        raise UsageError(f"dimension mismatch: {X.shape[0]} vs {Y.shape[0]}")
    sig = signature(X.shape[0] - 3)
    if X.ndim == 1 and Y.ndim == 1:
        x, y = X.tolist(), Y.tolist()
        total = 0.0 - x[0] * y[0]  # from +0.0, as einsum's sum starts
        for i in range(1, len(x) - 1):  # a loop: sum() compensates from Python 3.12 on
            total += x[i] * y[i]
        return total - x[-1] * y[-1]
    return np.einsum("i...,i...,i->...", X, Y, sig)


def inner_1(v: np.ndarray, w: np.ndarray):
    """Product of signature (+, ..., +, -) over the component axis 0: the
    form of R^n_1 and R^{n+1}_1, and of entries 2: of a light-cone
    coordinate in every space-form layout.  A sequential reduce, so a grid
    point and the same point alone round alike.  Broadcasts over trailing
    axes.
    """
    p = v * w
    return np.add.reduce(p[:-1], axis=0) - p[-1]


def causal_type(X: np.ndarray, tol: float = 1e-12) -> str:
    """Classify a vector as 'zero', 'lightlike', 'timelike' or 'spacelike'.

    The tolerance band for the light cone is relative to the Euclidean
    squared norm of the vector.
    """
    if tol < 0:
        raise UsageError("tolerance must be nonnegative")
    X = np.asarray(X, dtype=float)
    scale = float(np.dot(X, X))
    if scale == 0.0:
        return "zero"
    q = inner(X, X)
    if abs(q) <= tol * scale:
        return "lightlike"
    return "timelike" if q < 0 else "spacelike"


def is_laguerre_matrix(T: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff T preserves the inner product and fixes wp exactly.

    Both conditions are checked entrywise against ``tol`` times a scale
    derived from the matrix: sphere coordinates grow quadratically in the
    center, so absolute tolerances would be useless.  A matrix with a
    non-finite entry, or one so large that the square of its max-norm
    overflows, cannot be checked and is rejected.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {T.shape}")
    n = base_dim(T)
    big = float(np.abs(T).max())  # NaN when T holds one
    if not math.isfinite(big):
        return False
    try:  # a float ** raises OverflowError where * would quietly give inf
        scale = max(1.0, big ** 2)
    except OverflowError:
        return False
    G = signature_matrix(n)
    gram = T.dot(G).dot(T.T)  # T G T^T; ndarray.dot skips the dispatch cost of @
    gram -= G
    if np.abs(gram, out=gram).max() > tol * scale:
        return False
    # wp T is T_0 - T_1, rounded once, as the product wp @ T rounds it; the
    # row is finite here, so Python's max over it equals numpy's, and is cheaper
    wp_defect = max(map(abs, (T[0] - T[1] - wp(n)).tolist()))
    return wp_defect <= tol * max(1.0, big)
