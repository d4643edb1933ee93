import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre import group, lorentz
from laguerre.errors import InvalidElementError, UsageError


def test_wp_is_lightlike():
    assert lorentz.inner(lorentz.wp(3), lorentz.wp(3)) == 0.0


def test_inner_hand_values():
    # direct evaluation of the signature sum for a few fixed vectors
    gamma = np.array([0.0, 1.0, 0.0, 0.0, 0.0, -1.0])
    assert lorentz.inner(gamma, gamma) == pytest.approx(0.0, abs=1e-15)
    e2 = np.eye(6)[1]
    e6 = np.eye(6)[5]
    assert lorentz.inner(e2, e2) == 1.0
    assert lorentz.inner(e6, e6) == -1.0
    X = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    Y = np.array([-1.0, 0.5, 2.0, 0.0, 1.0, -2.0])
    expected = -X[0] * Y[0] + X[1] * Y[1] + X[2] * Y[2] + X[3] * Y[3] + X[4] * Y[4] - X[5] * Y[5]
    assert lorentz.inner(X, Y) == pytest.approx(expected, rel=1e-15)


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(50):
        X, Y, Z = rng.standard_normal((3, 7))
        a, b = rng.standard_normal(2)
        assert lorentz.inner(X, Y) == pytest.approx(lorentz.inner(Y, X), rel=1e-14, abs=1e-14)
        assert lorentz.inner(a * X + b * Z, Y) == pytest.approx(
            a * lorentz.inner(X, Y) + b * lorentz.inner(Z, Y), rel=1e-12, abs=1e-12
        )


# Time budget: about 0.3 s of tier-1 time on one core (60 examples).
@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([6, 7, 8]), st.lists(st.integers(1, 5), min_size=0, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_grid_inner_is_the_pointwise_inner(d, shape, seed):
    # n = 3, 4, 5.  A grid of pairings rounds exactly as each of its points
    # alone, and as the signature-weighted sum taken in component order;
    # so does the pairing of every point with one vector (wp).
    rng = np.random.default_rng(seed)
    X, Y = (rng.standard_normal((2, d, *shape)) * rng.lognormal(0.0, 3.0, (2, d, *shape)))
    sig = lorentz.signature(d - 3)
    ordered = 0.0
    for i in range(d):
        ordered = ordered + sig[i] * X[i] * Y[i]
    for other in (Y, lorentz.wp(d - 3)):
        grid = np.asarray(lorentz.inner(X, other))
        assert grid.shape == tuple(shape)
        for idx in np.ndindex(*shape):
            point = lorentz.inner(X[(slice(None),) + idx],
                                  other if other.ndim == 1 else other[(slice(None),) + idx])
            assert type(point) is float and point == grid[idx]
    assert np.array_equal(lorentz.inner(X, Y), ordered)


def test_inner_dimension_mismatch():
    with pytest.raises(UsageError):
        lorentz.inner(np.zeros(6), np.zeros(7))


def test_causal_type():
    assert lorentz.causal_type(lorentz.wp(3)) == "lightlike"
    assert lorentz.causal_type(np.eye(6)[0]) == "timelike"
    assert lorentz.causal_type(np.eye(6)[2]) == "spacelike"
    assert lorentz.causal_type(np.zeros(6)) == "zero"
    assert lorentz.causal_type(np.array([0.0, 1, 0, 0, 0, -1])) == "lightlike"
    with pytest.raises(UsageError):
        lorentz.causal_type(np.ones(6), tol=-1.0)


def test_is_laguerre_matrix_basics():
    assert lorentz.is_laguerre_matrix(np.eye(6))
    assert not lorentz.is_laguerre_matrix(np.diag([1.0, 1, 1, 1, 1, 2]))
    with pytest.raises(UsageError):
        lorentz.is_laguerre_matrix(np.eye(5, 6))


def test_parallel_flow_matrix_literal():
    # the unit-parameter parallel flow, written out entry by entry (n = 3)
    t = 1.0
    M = np.array([
        [1 - t * t / 2, t * t / 2, 0, 0, 0, -t],
        [-t * t / 2, 1 + t * t / 2, 0, 0, 0, -t],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [t, -t, 0, 0, 0, 1],
    ])
    assert lorentz.is_laguerre_matrix(M)
    assert np.abs(M - group.parabolic(1.0, 3).matrix).max() == 0.0


def test_group_elements_preserve_inner_and_cone():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = group.random_transform(rng, 3, factors=4).matrix
        X, Y = rng.standard_normal((2, 6))
        lhs = lorentz.inner(X @ T, Y @ T)
        rhs = lorentz.inner(X, Y)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        # light-like vectors stay light-like
        L = np.array([0.0, 1, 0, 0, 0, -1])
        img = L @ T
        assert abs(lorentz.inner(img, img)) <= 1e-10 * np.dot(img, img)


def test_matrices_that_move_wp_are_rejected():
    # both preserve the inner product; -I sends wp to -wp, the boost in the
    # (x_1, x_2) plane scales it by e^t
    assert not lorentz.is_laguerre_matrix(-np.eye(6))
    boost = np.eye(6)
    boost[:2, :2] = [[np.cosh(0.5), np.sinh(0.5)], [np.sinh(0.5), np.cosh(0.5)]]
    assert np.abs(boost @ lorentz.signature_matrix(3) @ boost.T - lorentz.signature_matrix(3)).max() < 1e-15
    assert not lorentz.is_laguerre_matrix(boost)


def test_overflowing_scale_is_rejected():
    # max|T|^2 overflows a double: the check cannot be made, so T is rejected
    assert not lorentz.is_laguerre_matrix(1e155 * np.eye(6))
    with pytest.raises(InvalidElementError):
        group.isometry(np.eye(3), [1e80, 0.0, 0.0])


def test_constants_are_shared_and_read_only():
    for const in (lorentz.signature(3), lorentz.signature_matrix(4), lorentz.wp(3),
                  lorentz.unit_wp(4)):
        with pytest.raises(ValueError):
            const[0] = 0.0
    assert lorentz.wp(3) is lorentz.wp(3)
    assert np.array_equal(lorentz.signature(3), [-1.0, 1, 1, 1, 1, -1])
    assert np.array_equal(lorentz.unit_wp(3), lorentz.wp(3) / np.sqrt(2.0))
    for _ in range(2):  # a failed call is not cached
        with pytest.raises(UsageError):
            lorentz.signature(2)


def reference_is_laguerre_matrix(T, tol=lorentz.DEFAULT_TOL):
    """The membership test written plainly, the reference for the fused one:
    fresh constants on every call, two scans of |T|, wp T as a product."""
    T = np.asarray(T, dtype=float)
    n = T.shape[-1] - 3
    G = np.diag(np.r_[-1.0, np.ones(n + 1), -1.0])
    wp = np.r_[1.0, -1.0, np.zeros(n + 1)]
    scale = max(1.0, float(np.abs(T).max()) ** 2)
    if not np.all(np.isfinite(T)):
        return False
    gram_defect = np.abs(T @ G @ T.T - G).max()
    if gram_defect > tol * scale:
        return False
    wp_defect = np.abs(wp @ T - wp).max()
    return bool(wp_defect <= tol * max(1.0, float(np.abs(T).max())))


def drawn_matrix(seed, n, factors):
    rng = np.random.default_rng(seed)
    # a writeable copy: the perturbation tests edit the matrix in place
    T = group.random_transform(rng, n, factors=factors, translation_scale=3.0).matrix.copy()
    return T, rng


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), factors=st.integers(1, 6),
       log_eps=st.floats(-12.0, -6.0), spot=st.booleans())
def test_laguerre_check_decides_as_reference(seed, n, factors, log_eps, spot):
    """Same decision as the reference on group elements and on elements
    perturbed by eps E (E dense, or one entry) across the tolerance."""
    T, rng = drawn_matrix(seed, n, factors)
    assert lorentz.is_laguerre_matrix(T) and reference_is_laguerre_matrix(T)
    E = rng.standard_normal(T.shape)
    if spot:
        E *= np.outer(np.eye(n + 3)[rng.integers(n + 3)], np.eye(n + 3)[rng.integers(n + 3)])
    P = T + 10.0 ** log_eps * E
    assert lorentz.is_laguerre_matrix(P) == reference_is_laguerre_matrix(P)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), count=st.integers(1, 3))
def test_non_finite_entries_are_rejected_as_by_reference(seed, n, bad, count):
    T, rng = drawn_matrix(seed, n, 4)
    for _ in range(count):
        T[tuple(rng.integers(n + 3, size=2))] = bad
    assert not lorentz.is_laguerre_matrix(T) and not reference_is_laguerre_matrix(T)


def test_perturbations_straddle_the_tolerance():
    """The eps sweep of the property above crosses the accept/reject edge."""
    for n in (3, 4):
        T, rng = drawn_matrix(n, n, 5)
        E = rng.standard_normal(T.shape)
        decisions = []
        for eps in np.logspace(-12, -6, 25):
            P = T + eps * E
            decisions.append(lorentz.is_laguerre_matrix(P))
            assert decisions[-1] == reference_is_laguerre_matrix(P)
        assert decisions[0] and not decisions[-1]
