import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre import group, lorentz, spheres
from laguerre.errors import EmbeddingDomainError, InvalidElementError, UsageError
from laguerre.spheres import ContactElement, Plane, PointAtInfinity, Sphere


def random_rotation(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


# --- generators ------------------------------------------------------------

def test_parabolic_zero_is_identity():
    assert np.abs(group.parabolic(0.0, 3).matrix - np.eye(6)).max() == 0.0


def test_isometry_first_row_hand_value():
    T = group.isometry(np.eye(3), np.array([1.0, 0, 0]))
    assert np.allclose(T.matrix[0], [1.5, -0.5, 1, 0, 0, 0])


def test_isometry_rejects_non_orthogonal():
    with pytest.raises(UsageError):
        group.isometry(2 * np.eye(3), np.zeros(3))


def test_flow_laws():
    rng = np.random.default_rng(2)
    for _ in range(25):
        s, t = rng.standard_normal(2)
        lhs = group.parabolic(s, 3).then(group.parabolic(t, 3)).matrix
        assert np.abs(lhs - group.parabolic(s + t, 3).matrix).max() < 1e-12
        lhs = group.hyperbolic(s, 3).then(group.hyperbolic(t, 3)).matrix
        assert np.abs(lhs - group.hyperbolic(s + t, 3).matrix).max() < 1e-12


def test_script_applies_its_factors_left_to_right():
    # A translation along the boost axis does not commute with the boost,
    # so applying the script must equal applying its factors one by one.
    shift = {"kind": "isometry", "A": np.eye(3).tolist(), "a": [0.0, 0.0, 1.0]}
    boost = {"kind": "hyperbolic", "t": 0.7}
    gamma = spheres.sphere_coord(Sphere(center=[0.3, -0.2, 0.5], radius=0.8))
    one_by_one = gamma
    for factor in (shift, boost):
        one_by_one = group.act_on_coord(group.compose_script([factor], n=3), one_by_one)
    whole = group.act_on_coord(group.compose_script([shift, boost], n=3), gamma)
    assert np.abs(whole.vec - one_by_one.vec).max() < 1e-12
    swapped = group.act_on_coord(group.compose_script([boost, shift], n=3), gamma)
    assert np.abs(swapped.vec - one_by_one.vec).max() > 0.1


def test_generators_fix_wp_exactly():
    rng = np.random.default_rng(4)
    w = lorentz.wp(3)
    for _ in range(20):
        T = group.random_transform(rng, 3, factors=5)
        assert np.abs(w @ T.matrix - w).max() <= 1e-12 * max(1, np.abs(T.matrix).max())


def test_generator_dispatch():
    T = group.generator("hyperbolic", n=4, t=0.3)
    assert T.n == 4
    with pytest.raises(UsageError):
        group.generator("elliptic", n=3, t=1.0)
    with pytest.raises(UsageError):
        group.generator("parabolic", t=1.0)


# --- block form ------------------------------------------------------------

def test_blocks_identity():
    b = group.to_blocks(group.LaguerreTransform(np.eye(6)))
    assert np.allclose(b.A, np.eye(3)) and b.w == 1.0
    assert np.allclose(b.u, 0) and np.allclose(b.v, 0)
    assert np.allclose(b.a, 0) and b.rho == 0.0


def test_blocks_of_parabolic_flow():
    b = group.to_blocks(group.parabolic(0.7, 3))
    assert np.allclose(b.A, np.eye(3)) and np.allclose(b.u, 0) and np.allclose(b.v, 0)
    assert b.w == pytest.approx(1.0)
    assert np.allclose(b.a, 0)
    assert b.rho == pytest.approx(-0.7)
    rebuilt = group.from_blocks(b)
    assert np.abs(rebuilt.matrix - group.parabolic(0.7, 3).matrix).max() < 1e-12


def test_blocks_of_boost_flow():
    t = 0.9
    b = group.to_blocks(group.hyperbolic(t, 3))
    expect_A = np.diag([1.0, 1.0, np.cosh(t)])
    assert np.abs(b.A - expect_A).max() < 1e-12
    assert np.allclose(b.u, [0, 0, np.sinh(t)])
    assert np.allclose(b.v, [0, 0, np.sinh(t)])
    assert b.w == pytest.approx(np.cosh(t))
    rebuilt = group.from_blocks(b)
    assert np.abs(rebuilt.matrix - group.hyperbolic(t, 3).matrix).max() < 1e-12


def test_blocks_roundtrip_randomized():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        T = group.random_transform(rng, 3, factors=4)
        rebuilt = group.from_blocks(group.to_blocks(T))
        scale = max(1.0, np.abs(T.matrix).max())
        worst = max(worst, np.abs(rebuilt.matrix - T.matrix).max() / scale)
    assert worst < 1e-10


def test_block_lorentz_violation_rejected():
    with pytest.raises(UsageError):
        group.BlockData(A=2 * np.eye(3), u=np.zeros(3), v=np.zeros(3), w=1.0,
                        a=np.zeros(3), rho=0.0)


# --- actions ---------------------------------------------------------------

def test_act_on_coord_identity():
    gam = spheres.sphere_coord(Sphere(np.array([1.0, 2, 3]), 0.5))
    out = group.act_on_coord(group.LaguerreTransform(np.eye(6)), gam)
    assert out.same_point(gam)


def test_parabolic_flow_shifts_signed_radius():
    # the parallel flow moves (x, xi) to (x + t xi, xi), so a sphere of
    # signed radius r becomes one of radius r + t about the same center
    rng = np.random.default_rng(8)
    for _ in range(50):
        t = rng.standard_normal()
        p = rng.standard_normal(3) * 2
        r = rng.standard_normal()
        T = group.parabolic(t, 3)
        img = spheres.classify_coord(group.act_on_coord(T, spheres.sphere_coord(Sphere(p, r))))
        assert isinstance(img, Sphere)
        assert np.abs(img.center - p).max() < 1e-10 * (1 + np.abs(p).max())
        assert img.radius == pytest.approx(r + t, rel=1e-10, abs=1e-10)


def test_planes_stay_planes():
    rng = np.random.default_rng(10)
    w = lorentz.wp(3)
    for _ in range(50):
        T = group.random_transform(rng, 3, factors=4)
        xi = rng.standard_normal(3)
        p = Plane(xi / np.linalg.norm(xi), rng.standard_normal())
        img_vec = spheres.sphere_coord(p).vec @ T.matrix
        assert abs(lorentz.inner(img_vec, w)) < 1e-9 * np.abs(img_vec).max()
        assert isinstance(spheres.classify_coord(img_vec), Plane)


def test_point_at_infinity_is_fixed():
    rng = np.random.default_rng(12)
    T = group.random_transform(rng, 3, factors=5)
    img = spheres.classify_coord(lorentz.wp(3) @ T.matrix)
    assert isinstance(img, PointAtInfinity)


def test_act_on_contact_parabolic_closed_form():
    rng = np.random.default_rng(14)
    for _ in range(100):
        x = rng.standard_normal(3) * 2
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        t = rng.standard_normal()
        out = group.act_on_contact(group.parabolic(t, 3), ContactElement(x, xi))
        assert np.abs(out.x - (x + t * xi)).max() < 1e-10
        assert np.abs(out.xi - xi).max() < 1e-12


def _hyperbolic_closed_form(x, xi, t):
    x0, x1 = x[:-1], x[-1]
    xi0, xi1 = xi[:-1], xi[-1]
    den = np.sinh(t) * xi1 + np.cosh(t)
    new_x = np.concatenate([x0 - (np.sinh(t) * x1 / den) * xi0, [x1 / den]])
    new_xi = np.concatenate([xi0 / den, [(np.cosh(t) * xi1 + np.sinh(t)) / den]])
    return new_x, new_xi


def _isometry_closed_form(x, xi, A, a):
    return x @ A + a, xi @ A


def test_act_on_contact_hyperbolic_axis_case():
    # unit normal along the boost axis: the base point contracts by e^{-t}
    # in that axis and the normal is fixed
    t = 0.8
    x = np.array([1.0, -2.0, 3.0])
    xi = np.array([0.0, 0.0, 1.0])
    out = group.act_on_contact(group.hyperbolic(t, 3), ContactElement(x, xi))
    assert np.abs(out.x - [1.0, -2.0, 3.0 * np.exp(-t)]).max() < 1e-12
    assert np.abs(out.xi - xi).max() < 1e-12


def test_act_on_contact_matches_closed_forms():
    rng = np.random.default_rng(16)
    for _ in range(200):
        x = rng.standard_normal(3) * 2
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        kind = rng.integers(0, 3)
        if kind == 0:
            t = rng.standard_normal()
            T = group.parabolic(t, 3)
            ex, exi = x + t * xi, xi
        elif kind == 1:
            t = rng.standard_normal() * 0.8
            T = group.hyperbolic(t, 3)
            ex, exi = _hyperbolic_closed_form(x, xi, t)
        else:
            A = random_rotation(rng, 3)
            a = rng.standard_normal(3)
            T = group.isometry(A, a)
            ex, exi = _isometry_closed_form(x, xi, A, a)
        out = group.act_on_contact(T, ContactElement(x, xi))
        assert np.abs(out.x - ex).max() < 1e-9 * (1 + np.abs(ex).max())
        assert np.abs(out.xi - exi).max() < 1e-9


def test_tangential_invariant_preserved():
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(300):
        T = group.random_transform(rng, 3, factors=4)
        a = Sphere(rng.standard_normal(3) * 2, rng.standard_normal())
        b = Sphere(rng.standard_normal(3) * 2, rng.standard_normal())
        Fa = spheres.tangential_invariant(a, b)
        ia = spheres.classify_coord(group.act_on_coord(T, spheres.sphere_coord(a)))
        ib = spheres.classify_coord(group.act_on_coord(T, spheres.sphere_coord(b)))
        Fb = spheres.tangential_invariant(ia, ib)
        scale = max(1.0, abs(Fa))
        worst = max(worst, abs(Fa - Fb) / scale)
    assert worst < 1e-10


def test_contact_status_preserved():
    rng = np.random.default_rng(20)
    for _ in range(200):
        T = group.random_transform(rng, 3, factors=4)
        x = rng.standard_normal(3)
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        r1, r2 = rng.standard_normal(2)
        a, b = Sphere(x - r1 * xi, r1), Sphere(x - r2 * xi, r2)
        ia = spheres.classify_coord(group.act_on_coord(T, spheres.sphere_coord(a)))
        ib = spheres.classify_coord(group.act_on_coord(T, spheres.sphere_coord(b)))
        assert spheres.oriented_contact(ia, ib, tol=1e-7)


# --- factorization ----------------------------------------------------------

def test_decompose_identity():
    f = group.decompose(np.eye(6))
    assert f.epsilon == 1 and f.t == 0.0 and f.s == 0.0
    assert np.allclose(f.A1, np.eye(3)) and np.allclose(f.A2, np.eye(3))
    assert np.allclose(f.a1, 0) and np.allclose(f.a2, 0)


def test_decompose_pure_boost():
    f = group.decompose(group.hyperbolic(0.7, 3))
    assert f.t == pytest.approx(0.7, abs=1e-12)
    assert f.s == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(f.A1, np.eye(3)) and np.allclose(f.A2, np.eye(3))
    assert np.abs(f.reconstruct() - group.hyperbolic(0.7, 3).matrix).max() < 1e-12


def test_decompose_randomized_reconstruction():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        T = group.random_transform(rng, 3, factors=5)
        f = group.decompose(T)
        scale = max(1.0, np.abs(T.matrix).max())
        worst = max(worst, np.abs(f.reconstruct() - T.matrix).max() / scale)
        assert f.epsilon == 1
        assert f.t >= 0.0
    assert worst < 1e-10


def test_decompose_rejects_outsiders():
    with pytest.raises(InvalidElementError):
        group.decompose(np.diag([1.0, 1, 1, 1, 1, 2]))
    # fixes wp and preserves the product, but its Lorentz block reverses
    # time orientation: not a product of the generator families
    with pytest.raises(InvalidElementError):
        group.decompose(np.diag([1.0, 1, 1, 1, 1, -1]))


def test_compose_script():
    script = [
        {"kind": "parabolic", "t": 1.0},
        {"kind": "parabolic", "t": 2.0},
    ]
    T = group.compose_script(script, n=3)
    assert np.abs(T.matrix - group.parabolic(3.0, 3).matrix).max() < 1e-12
    wrapped = {"n": 3, "factors": [{"kind": "hyperbolic", "t": 0.5}]}
    T2 = group.compose_script(wrapped)
    assert np.abs(T2.matrix - group.hyperbolic(0.5, 3).matrix).max() < 1e-14
    matrix_script = [{"kind": "matrix", "rows": group.parabolic(0.3, 3).matrix.tolist()}]
    T3 = group.compose_script(matrix_script)
    assert np.abs(T3.matrix - group.parabolic(0.3, 3).matrix).max() == 0.0
    with pytest.raises(UsageError):
        group.compose_script([])
    with pytest.raises(UsageError):
        group.compose_script([{"kind": "parabolic", "t": 1.0}])  # n unknown


@pytest.mark.parametrize("script, n", [
    ([5], None), ([{"kind": "isometry"}], None), ([{"kind": "isometry", "a": 2.0}], None),
    ([{"kind": "parabolic"}], 3), ([{"kind": "elliptic", "t": 1.0}], 3), (["parabolic"], 3),
])
def test_compose_script_rejects_malformed_factors(script, n):
    with pytest.raises(UsageError):
        group.compose_script(script, n=n)


def test_transform_constructor_rejects_bad_matrix():
    with pytest.raises(InvalidElementError):
        group.LaguerreTransform(np.diag([1.0, 1, 1, 1, 1, 2]))


@pytest.mark.parametrize("n", [4, 5])
def test_decompose_and_blocks_in_higher_dimension(n):
    rng = np.random.default_rng(n)
    for _ in range(100):
        T = group.random_transform(rng, n, factors=5)
        scale = max(1.0, np.abs(T.matrix).max())
        f = group.decompose(T)
        assert np.abs(f.reconstruct() - T.matrix).max() < 1e-10 * scale
        b = group.to_blocks(T)
        assert np.abs(group.from_blocks(b).matrix - T.matrix).max() < 1e-10 * scale


def test_transform_keeps_a_read_only_copy():
    M = np.eye(6)
    T = group.LaguerreTransform(M)
    M[0, 0] = 5.0
    assert T.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        T.matrix[0, 0] = 5.0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4, 5]), factors=st.integers(1, 6))
def test_inverse_is_the_group_inverse(seed, n, factors):
    """G T^T G agrees with the numerical inverse to rounding (which grows
    like |T|^2, the condition number of a group element)."""
    T = group.random_transform(np.random.default_rng(seed), n, factors=factors)
    scale = max(1.0, float(np.abs(T.matrix).max())) ** 2
    assert np.abs(T.inverse().matrix - np.linalg.inv(T.matrix)).max() <= 1e-12 * scale
    assert np.abs(T.then(T.inverse()).matrix - np.eye(n + 3)).max() <= 1e-12 * scale


def test_act_on_contact_without_euclidean_image():
    # Translating by 1e70 puts 1e70 <x, xi> into the product of the hyperplane
    # member with T; summed in blocks it leaves rounding noise ~1e54 in the
    # middle block, against the last entry 1, so the image has no element.
    T = group.isometry(np.eye(3), np.array([1e70, 0.0, 0.0]))
    with pytest.raises(EmbeddingDomainError, match="no Euclidean element"):
        group.act_on_contact(T, ContactElement(np.array([1.0, 2.0, 3.0]),
                                               np.array([0.6, 0.0, 0.8])))


def test_act_on_contact_names_a_space_form_element():
    xi = np.array([0.3, -0.4, np.sqrt(1.25)])   # unit time-like
    with pytest.raises(UsageError, match="not for an element of r31"):
        group.act_on_contact(group.parabolic(0.5, 3), ContactElement(np.zeros(3), xi, "r31"))


# --- validation at the boundary ----------------------------------------------

def _validated_every_step(rng, n, factors, translation_scale, flow_scale):
    """random_transform as it was written before its factors became plain
    matrices: every generator and every partial product is validated."""
    result = None
    kinds = rng.integers(0, 3, size=factors)
    if factors >= 3:
        kinds[:3] = [0, 1, 2]
    for kind in kinds:
        if kind == 0:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            factor = group.isometry(Q, translation_scale * rng.standard_normal(n))
        elif kind == 1:
            factor = group.parabolic(flow_scale * rng.standard_normal(), n)
        else:
            factor = group.hyperbolic(flow_scale * rng.standard_normal(), n)
        result = factor if result is None else result.then(factor)
    return result


def _product_of_validated_generators(f):
    n = f.n
    return f.epsilon * (group.isometry(f.A2, f.a2).matrix @ group.hyperbolic(f.t, n).matrix
                        @ group.parabolic(f.s, n).matrix @ group.isometry(f.A1, f.a1).matrix)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), factors=st.integers(1, 6),
       translation_scale=st.sampled_from([0.1, 1.0, 10.0]), flow_scale=st.sampled_from([0.4, 1.0]),
       eps=st.sampled_from([1, -1]))
def test_plain_matrices_equal_the_validated_path(seed, n, factors, translation_scale,
                                                 flow_scale, eps):
    """Building generators and products as plain matrices and validating once
    changes no bit: random_transform equals the validate-every-step loop, and
    reconstruct() equals the product of four validated generators, both for
    decompose's factorizations and for factorizations drawn directly."""
    args = (n, factors, translation_scale, flow_scale)
    T = group.random_transform(np.random.default_rng(seed), *args)
    reference = _validated_every_step(np.random.default_rng(seed), *args)
    assert T.matrix.tobytes() == reference.matrix.tobytes()
    rng = np.random.default_rng(seed)
    t, s = rng.standard_normal(2)
    drawn = group.Factorization(epsilon=eps, A2=random_rotation(rng, n), a2=rng.standard_normal(n),
                                t=t, s=s, A1=random_rotation(rng, n), a1=rng.standard_normal(n))
    for f in (drawn, group.decompose(T)):
        assert f.reconstruct().tobytes() == _product_of_validated_generators(f).tobytes()


def test_elements_are_validated_once(monkeypatch):
    calls = []
    check = lorentz.is_laguerre_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(lorentz, "is_laguerre_matrix", counted)
    T = group.random_transform(np.random.default_rng(30), 3, factors=6)
    assert len(calls) == 1
    f = group.decompose(T)
    f.reconstruct()
    group.to_blocks(T)
    assert len(calls) == 1


def test_factorization_is_immutable():
    rng = np.random.default_rng(32)
    arrays = {"A2": random_rotation(rng, 3), "a2": rng.standard_normal(3),
              "A1": random_rotation(rng, 3), "a1": rng.standard_normal(3)}
    f = group.Factorization(epsilon=1, t=0.3, s=-0.2, **arrays)
    product = f.reconstruct().copy()
    for name, x in arrays.items():
        x[...] = 0.0
        with pytest.raises(ValueError):
            getattr(f, name)[0] = 1.0
    assert f.reconstruct() is f.reconstruct()
    assert f.reconstruct().tobytes() == product.tobytes()
    with pytest.raises(ValueError):
        f.reconstruct()[0, 0] = 1.0


@pytest.mark.parametrize("t", [7.0, 10.0, 20.0])
def test_decompose_large_boost(t):
    """The peel reads the boosted column without cancellation: before, it lost
    eps cosh^2 t there, and the factors of a pure boost failed the checks."""
    T = group.hyperbolic(t, 3)
    f = group.decompose(T)
    assert f.t == pytest.approx(t, rel=1e-14) and abs(f.s) < 1e-12
    assert np.abs(f.A2 @ f.A2.T - np.eye(3)).max() < 1e-14
    assert np.abs(f.reconstruct() - T.matrix).max() <= 1e-14 * np.abs(T.matrix).max()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), factors=st.integers(3, 6),
       flow_scale=st.sampled_from([1.0, 3.0]))
def test_decompose_of_an_element_raises_no_usage_error(seed, n, factors, flow_scale):
    """Large flows put the factors' rounding near decompose's tolerance: an
    element may then fail to factor (InvalidElementError), but a validated
    element is never reported as malformed input (UsageError)."""
    T = group.random_transform(np.random.default_rng(seed), n, factors, flow_scale=flow_scale)
    try:
        f = group.decompose(T)
    except InvalidElementError:
        return
    scale = max(1.0, np.abs(T.matrix).max())
    assert np.abs(f.reconstruct() - T.matrix).max() <= 1e-10 * scale


def test_decompose_gate_states_the_measured_defects():
    """Draw 537 at flow scale 3 passes validation (its membership defect,
    2.0e-9, is within 1e-9 max|T|^2) but peels to a rotation block orthogonal
    only to 2.2e-10.  The message gives both numbers and the tolerance, and
    does not call its Lorentz block (w = 1.39) non-orthochronous."""
    rng = np.random.default_rng(0)
    for _ in range(538):
        T = group.random_transform(rng, 3, 4, flow_scale=3.0)
    assert T.matrix[-1, -1] == pytest.approx(1.39, abs=0.01)
    with pytest.raises(InvalidElementError) as err:
        group.decompose(T)
    message = str(err.value)
    assert "rotation block is orthogonal only to 2.2e-10 (ORTHOGONAL_TOL 1e-10)" in message
    assert "own membership defect |T G T^T - G| is 2.0e-09" in message
    assert "orthochronous" not in message


def _rotation_in_plane_of_first_and_last_axes(theta, n=3):
    R = np.eye(n)
    R[0, 0] = R[-1, -1] = np.cos(theta)
    R[0, -1], R[-1, 0] = -np.sin(theta), np.sin(theta)
    return R


@pytest.mark.parametrize("theta", [1e-6, 1e-7, 1e-8])
def test_decompose_rotates_a_nearly_axial_last_row_without_cancellation(theta):
    """A boost followed by a rotation by theta leaves v = T[-1, 2:-1] theta off
    the last axis.  The Householder mirror v/|v| - e_last then has a last entry
    of about -theta^2/2; formed as the difference cos theta - 1 it loses its
    digits, the rotated v stays off the axis, and the peeled block fails the
    orthogonality gate (1.2e-10 to 9.0e-9 before)."""
    T = group.hyperbolic(1.0, 3).then(group.isometry(
        _rotation_in_plane_of_first_and_last_axes(theta), np.zeros(3)))
    v = T.matrix[-1, 2:-1]
    assert abs(v[0]) == pytest.approx(np.sinh(1.0) * theta, rel=1e-9)
    f = group.decompose(T)
    assert np.abs(f.A2 @ f.A2.T - np.eye(3)).max() <= 1e-15
    assert np.abs(f.reconstruct() - T.matrix).max() <= 1e-12 * max(1.0, np.abs(T.matrix).max())


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("factors", [1, 2, 3, 4, 5, 6])
def test_random_transform_draws_a_pinned_stream(n, factors):
    """random_transform draws its kinds, then per factor a rotation seed and a
    translation (isometry) or one parameter (flows), and nothing else: the
    element stream a seed gives (the benchmark's inputs) stays fixed."""
    for seed in range(5):
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        group.random_transform(rng, n, factors)
        kinds = replay.integers(0, 3, size=factors)
        if factors >= 3:
            kinds[:3] = [0, 1, 2]
        for kind in kinds:
            if kind == 0:
                replay.standard_normal((n, n))
                replay.standard_normal(n)
            else:
                replay.standard_normal()
        assert rng.bit_generator.state == replay.bit_generator.state
