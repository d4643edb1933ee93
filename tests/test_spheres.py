import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre import lorentz, spheres
from laguerre.errors import InvalidCoordinateError, InvalidLineError, UsageError
from laguerre.spheres import ContactElement, Plane, PointAtInfinity, Sphere


def test_sphere_coord_hand_values():
    got = spheres.sphere_coord_vector(Sphere(np.zeros(3), 1.0))
    assert np.allclose(got, [0, 1, 0, 0, 0, -1])
    got = spheres.sphere_coord_vector(Plane(np.array([0.0, 0, 1]), 0.0))
    assert np.allclose(got, [0, 0, 0, 0, 1, 1])
    got = spheres.sphere_coord_vector(Sphere(np.zeros(3), 0.0))
    assert np.allclose(got, [0.5, 0.5, 0, 0, 0, 0])


def test_sphere_coord_lightlike_randomized():
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = Sphere(rng.standard_normal(3) * 5, rng.standard_normal() * 3)
        v = spheres.sphere_coord_vector(s)
        assert abs(lorentz.inner(v, v)) < 1e-12 * np.dot(v, v)
        xi = rng.standard_normal(3)
        p = Plane(xi / np.linalg.norm(xi), rng.standard_normal() * 4)
        v = spheres.sphere_coord_vector(p)
        assert abs(lorentz.inner(v, v)) < 1e-12 * np.dot(v, v)


def test_plane_rejects_non_unit_normal():
    with pytest.raises(UsageError):
        Plane(np.array([0.0, 0.0, 2.0]), 1.0)


def test_classify_coord():
    s = spheres.classify_coord(spheres.sphere_coord(Sphere(np.zeros(3), 1.0)))
    assert isinstance(s, Sphere)
    assert np.allclose(s.center, 0) and s.radius == pytest.approx(1.0)

    p = spheres.classify_coord(spheres.sphere_coord(Plane(np.array([0.0, 0, 1]), 0.0)))
    assert isinstance(p, Plane)
    assert np.allclose(p.normal, [0, 0, 1]) and p.offset == pytest.approx(0.0)

    inf = spheres.classify_coord(spheres.ProjectivePoint(lorentz.wp(3)))
    assert isinstance(inf, PointAtInfinity)
    # scaled representative of the improper point classifies the same way
    inf2 = spheres.classify_coord(-3.0 * lorentz.wp(3))
    assert isinstance(inf2, PointAtInfinity)

    with pytest.raises(InvalidCoordinateError):
        spheres.classify_coord(np.array([1.0, 0, 0, 0, 0, 0]))


def test_classify_roundtrip_randomized():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        if rng.random() < 0.5:
            el = Sphere(rng.standard_normal(3) * 4, rng.standard_normal() * 3)
        else:
            xi = rng.standard_normal(3)
            el = Plane(xi / np.linalg.norm(xi), rng.standard_normal() * 4)
        # random projective rescale of the representative
        scale = rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-2, 2))
        back = spheres.classify_coord(scale * spheres.sphere_coord_vector(el))
        assert type(back) is type(el)
        if isinstance(el, Sphere):
            assert np.abs(back.center - el.center).max() < 1e-10 * (1 + np.abs(el.center).max())
            assert back.radius == pytest.approx(el.radius, rel=1e-10, abs=1e-10)
        else:
            assert np.abs(back.normal - el.normal).max() < 1e-10
            assert back.offset == pytest.approx(el.offset, rel=1e-10, abs=1e-10)


def test_oriented_contact_hand_cases():
    s1 = Sphere(np.zeros(3), 1.0)
    assert spheres.oriented_contact(s1, Plane(np.array([0.0, 0, 1]), 1.0))
    assert spheres.oriented_contact(s1, Sphere(np.array([3.0, 0, 0]), -2.0))
    assert not spheres.oriented_contact(s1, Sphere(np.zeros(3), 2.0))


def test_tangential_invariant():
    s1 = Sphere(np.zeros(3), 1.0)
    s2 = Sphere(np.array([3.0, 0, 0]), 1.0)
    assert spheres.tangential_invariant(s1, s2) == pytest.approx(9.0)
    assert spheres.tangential_invariant(s1, s1) == 0.0
    s3 = Sphere(np.array([3.0, 0, 0]), -2.0)
    assert spheres.tangential_invariant(s1, s3) == pytest.approx(0.0)
    with pytest.raises(UsageError):
        spheres.tangential_invariant(s1, Plane(np.array([1.0, 0, 0]), 0.0))


def test_contact_iff_tangential_invariant_vanishes():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(10_000):
        if rng.random() < 0.5:
            # tangent pair built from a shared contact element
            x = rng.standard_normal(3) * 3
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            r1, r2 = rng.standard_normal(2) * 3
            a = Sphere(x - r1 * xi, r1)
            b = Sphere(x - r2 * xi, r2)
        else:
            a = Sphere(rng.standard_normal(3) * 3, rng.standard_normal() * 2)
            b = Sphere(rng.standard_normal(3) * 3, rng.standard_normal() * 2)
        F = spheres.tangential_invariant(a, b)
        scale = 1.0 + np.dot(a.center, a.center) + np.dot(b.center, b.center) \
            + a.radius ** 2 + b.radius ** 2
        contact = spheres.oriented_contact(a, b, tol=1e-9)
        assert contact == (abs(F) <= 1e-8 * scale)
        hits += contact
    assert hits > 4000  # both branches well represented


def test_wp_pairing_separates_spheres_from_planes():
    rng = np.random.default_rng(9)
    w = lorentz.wp(3)
    for _ in range(200):
        s = Sphere(rng.standard_normal(3), rng.standard_normal())
        assert abs(lorentz.inner(spheres.sphere_coord_vector(s), w)) > 0.5
        xi = rng.standard_normal(3)
        p = Plane(xi / np.linalg.norm(xi), rng.standard_normal())
        assert abs(lorentz.inner(spheres.sphere_coord_vector(p), w)) < 1e-12


def test_lie_line_hand_case():
    c = ContactElement(np.zeros(3), np.array([0.0, 0, 1]))
    line = spheres.lie_line(c)
    assert np.allclose(line.gamma1.vec, [1, 1, 0, 0, 0, 0])  # (1/2,1/2,0,0,0,0) rescaled
    assert np.allclose(line.gamma2.vec, [0, 0, 0, 0, 1, 1])
    assert abs(lorentz.inner(line.gamma1.vec, line.gamma2.vec)) < 1e-14


def test_pencil_member_is_tangent_sphere():
    # gamma1 + mu gamma2 carries signed radius -mu: at x = 0 the member with
    # mu = -r must be the sphere of radius r centered at -r xi
    rng = np.random.default_rng(13)
    for _ in range(100):
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        r = rng.standard_normal() * 2
        c = ContactElement(np.zeros(3), xi)
        g1 = spheres.sphere_point(spheres.coord_tail(c.x, 0.0))
        lam = float(np.dot(c.x, xi))
        g2 = np.concatenate([[lam, -lam], xi, [1.0]])
        member = spheres.classify_coord(g1 + (-r) * g2)
        expected = Sphere(-r * xi, r)
        assert np.abs(member.center - expected.center).max() < 1e-12
        assert member.radius == pytest.approx(r, abs=1e-12)


def test_contact_from_line_roundtrip():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10_000):
        x = rng.standard_normal(3) * 3
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        c = ContactElement(x, xi)
        back = spheres.contact_from_line(spheres.lie_line(c))
        worst = max(worst, np.abs(back.x - x).max(), np.abs(back.xi - xi).max())
    assert worst < 1e-10


def test_contact_from_line_reads_normal_from_plane_member():
    xi = np.array([0.6, 0.0, 0.8])
    lam = 2.5
    g2 = np.concatenate([[lam, -lam], xi, [1.0]])
    x = lam * xi  # a base point with x . xi = lam
    line = spheres.LieLine(
        spheres.ProjectivePoint(spheres.sphere_point(spheres.coord_tail(x, 0.0))),
        spheres.ProjectivePoint(g2),
    )
    back = spheres.contact_from_line(line)
    assert np.abs(back.xi - xi).max() < 1e-12


def test_degenerate_line_rejected():
    g2 = spheres.ProjectivePoint(np.array([0.0, 0, 0, 0, 1, 1]))
    with pytest.raises(InvalidLineError):
        spheres.LieLine(g2, g2)
    # a line whose "sphere" generator is actually a plane
    g2b = spheres.ProjectivePoint(np.array([1.0, -1, 0, 1, 0, 1]))
    with pytest.raises(InvalidLineError):
        spheres.LieLine(g2, g2b)


def test_element_json_roundtrip():
    for el in [Sphere(np.array([1.0, 2, 3]), -0.5), Plane(np.array([0.0, 1, 0]), 2.0)]:
        back = spheres.element_from_json(spheres.element_to_json(el))
        assert type(back) is type(el)
    with pytest.raises(UsageError):
        spheres.element_from_json({"kind": "blob"})


# --- one element type per kind for the three space forms ---------------------

R31_NORMAL = np.array([0.3, -0.4, np.sqrt(1.25)])        # <xi, xi> = -1
R30_NORMAL = np.array([0.375, 0.3, -0.4, -0.625])        # null, <xi, nu> = 1


@pytest.mark.parametrize("call, space", [
    (lambda: spheres.tangential_invariant(Sphere(np.zeros(3), 1.0),
                                          Sphere(np.ones(3), 0.5, "r31")), "r31"),
    (lambda: spheres.tangential_invariant(spheres.CSphere(np.zeros(4)),
                                          Sphere(np.zeros(3), 1.0)), "r30"),
    (lambda: spheres.lie_line(ContactElement(np.zeros(3), R31_NORMAL, "r31")), "r31"),
    (lambda: spheres.lie_line(ContactElement(np.zeros(4), R30_NORMAL, "r30")), "r30"),
    (lambda: spheres.element_to_json(Sphere(np.zeros(3), 1.0, "r31")), "r31"),
    (lambda: spheres.element_to_json(Plane(R30_NORMAL, 1.0, "r30")), "r30"),
    (lambda: spheres.element_to_json(spheres.CSphere(np.zeros(4))), "r30"),
], ids=["tangential-r31", "tangential-r30", "lie-line-r31", "lie-line-r30", "json-r31-sphere",
        "json-r30-plane", "json-r30-sphere"])
def test_euclidean_only_operations_name_the_space(call, space):
    with pytest.raises(UsageError, match=f"R\\^n only, not for an element of {space}"):
        call()


def test_element_space_tags_are_checked():
    with pytest.raises(UsageError, match="CSphere"):
        Sphere(np.zeros(4), 1.0, "r30")   # a paraboloid has no free radius
    for make in (lambda: Sphere(np.zeros(3), 1.0, "r4"),
                 lambda: Plane(np.array([0.0, 0, 1]), 1.0, "r4"),
                 lambda: ContactElement(np.zeros(3), np.array([0.0, 0, 1]), "r4")):
        with pytest.raises(UsageError, match="unknown space tag 'r4'"):
            make()


# Cases that test_plane_rejects_non_unit_normal and (in test_spaceforms)
# test_contact_element_validation do not already cover.
@pytest.mark.parametrize("make", [
    lambda: Plane(np.array([1.0, 0, 0.0]), 1.0, "r31"),          # space-like
    lambda: Plane(np.array([1.0, 0, 0, 1.0]), 1.0, "r30"),       # not null
    lambda: Plane(2.0 * R30_NORMAL, 1.0, "r30"),                 # <xi, nu> = 2
    lambda: ContactElement(np.zeros(3), R31_NORMAL),             # not unit in R^n
    lambda: ContactElement(np.zeros(4), 2.0 * R30_NORMAL, "r30"),
], ids=["plane-r31", "plane-r30-null", "plane-r30-nu", "contact-r3", "contact-r30-nu"])
def test_normal_conditions_of_every_space(make):
    with pytest.raises(UsageError):
        make()


def test_tangent_hyperboloids_are_in_oriented_contact():
    # sphere_coord and oriented_contact take elements of every space form:
    # H(x - r xi, r) touches the contact element (x, xi) of R^3_1 for every r.
    x = np.array([0.5, 1.0, -0.2])
    h1, h2 = (Sphere(x - r * R31_NORMAL, r, "r31") for r in (0.7, -1.3))
    assert spheres.oriented_contact(h1, h2)
    assert not spheres.oriented_contact(h1, Sphere(x - 0.7 * R31_NORMAL, 1.1, "r31"))
    # The coordinates of all three space forms lie on one quadric: a
    # hyperboloid touches the Euclidean image of its tangent hyperboloid.
    image = spheres.classify_coord(spheres.sphere_coord(h2))
    assert image.space == "r3" and spheres.oriented_contact(h1, image)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, name", [
    (lambda v: Sphere(v[:3], 1.0), "center"),
    (lambda v: Plane(v[:3], 0.0), "normal"),
    (lambda v: spheres.CSphere(v[:4]), "p"),
    (lambda v: ContactElement(v[:3], np.array([0.0, 0, 1])), "x"),
    (lambda v: ContactElement(np.zeros(3), v[:3]), "xi"),
    (lambda v: spheres.ProjectivePoint(v), "representative"),
], ids=["sphere", "plane", "csphere", "contact-x", "contact-xi", "projective"])
def test_non_finite_entries_are_rejected_by_name(make, name, bad):
    v = np.array([0.0, 0.0, 1.0, 0.5, 0.5, 0.0])
    v[2] = bad
    with pytest.raises(UsageError, match=f"^{name} has non-finite entries"):
        make(v)


def test_representative_pivot_is_the_first_entry_of_largest_magnitude():
    assert spheres.normalize_representative(np.array([1.0, -4.0, 4.0, 0.5])).tolist() == [
        -0.25, 1.0, -1.0, -0.125]
    assert spheres.normalize_representative([0.0, 3.0, -3.0]).tolist() == [0.0, 1.0, -1.0]
    with pytest.raises(InvalidCoordinateError):
        spheres.normalize_representative(np.zeros(6))


def _element_batch(kind, rng, count):
    """``count`` elements of one kind and the broadcasting-kernel coordinates
    of the whole stacked batch, one row per element."""
    v = rng.standard_normal((count, 4)) * rng.lognormal(0.0, 1.5, (count, 1))
    if kind == "csphere-r30":
        return [spheres.CSphere(p) for p in v], spheres.sphere_point(v)
    shape, space = kind.split("-")
    if shape == "sphere":
        elements = [Sphere(p[:3], p[3], space) for p in v]
        return elements, spheres.sphere_point(spheres.coord_tail(v[:, :3], -v[:, 3], space))
    if space == "r3":
        normals = v[:, :3] / np.linalg.norm(v[:, :3], axis=-1, keepdims=True)
    else:  # a unit time-like normal, <xi, xi> = -1, of either time orientation
        xi0 = 0.5 * v[:, :2]
        last = np.sqrt(1.0 + np.sum(xi0 * xi0, axis=-1, keepdims=True))
        normals = np.concatenate([xi0, np.where(v[:, 2:3] < 0, -last, last)], axis=-1)
    elements = [Plane(xi, lam, space) for xi, lam in zip(normals, v[:, 3])]
    return elements, spheres.plane_point(v[:, 3], spheres.coord_tail(normals, 1.0, space))


# Time budget: about 0.3 s of tier-1 time on one core (80 examples of up to
# 7 elements each).
@settings(max_examples=80, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["sphere-r3", "sphere-r31", "plane-r3", "plane-r31", "csphere-r30"]),
       count=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_element_coordinates_are_the_rows_of_the_batch_kernels(kind, count, seed):
    """The coordinate of one element and the row of a stacked batch come from
    the same kernels and agree bit for bit, so a patch and its elements
    cannot drift apart."""
    elements, batch = _element_batch(kind, np.random.default_rng(seed), count)
    assert batch.shape == (count, elements[0].n + 3)
    for element, row in zip(elements, batch):
        assert spheres.sphere_coord_vector(element).tobytes() == row.tobytes()
