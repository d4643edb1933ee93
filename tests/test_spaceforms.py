import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre import fd, hypersurface, lorentz, patches, spaceforms, spheres
from laguerre.errors import EmbeddingDomainError, UsageError
from laguerre.spheres import ContactElement, CSphere, Plane, Sphere


def test_spaceform_coord_hand_values():
    got = spheres.sphere_coord(Sphere(np.zeros(3), 1.0, "r31")).vec
    assert np.allclose(got, [1, 0, -1, 0, 0, 0])
    got = spheres.sphere_coord(CSphere(np.zeros(4)))
    # (1/2, 1/2, 0, 0, 0, 0) up to the canonical rescale
    assert got.same_point(spheres.ProjectivePoint(np.array([0.5, 0.5, 0, 0, 0, 0.0])))


def test_spaceform_coords_are_lightlike():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h = Sphere(rng.standard_normal(3) * 2, rng.standard_normal(), "r31")
        v = spheres.sphere_coord(h).vec
        assert abs(lorentz.inner(v, v)) < 1e-10 * np.dot(v, v)
        xi0 = rng.standard_normal(2) * 0.8
        xi = np.concatenate([xi0, [np.sqrt(1 + xi0 @ xi0)]])  # <xi, xi> = -1
        p = Plane(xi, rng.standard_normal(), "r31")
        v = spheres.sphere_coord(p).vec
        assert abs(lorentz.inner(v, v)) < 1e-10 * np.dot(v, v)


def test_r30_plane_coordinate_lightlike():
    xi0 = np.array([0.3, -0.4])
    xi1 = -(1 + xi0 @ xi0) / 2
    xi = np.concatenate([[xi1 + 1], xi0, [xi1]])
    p = Plane(xi, 1.7, "r30")
    v = spheres.sphere_coord(p).vec
    assert abs(lorentz.inner(v, v)) < 1e-12 * np.dot(v, v)


def test_contact_element_validation():
    with pytest.raises(UsageError):
        ContactElement(np.zeros(3), np.array([1.0, 0, 0]), "r31")  # space-like normal
    with pytest.raises(UsageError):
        ContactElement(np.array([1.0, 0, 0, 0]), np.array([0.5, 0, 0, -0.5]), "r30")


def test_embed_sigma_hand_case():
    c = ContactElement(np.zeros(3), np.array([0.0, 0, 1]), "r31")
    e = spaceforms.embed_element(c)
    assert np.allclose(e.x, 0) and np.allclose(e.xi, [1, 0, 0])


def test_embed_sigma_domain_error():
    # <xi, xi> = -1 forces |xi_last| >= 1, so build a raw element to hit the guard
    c = ContactElement.__new__(ContactElement)
    object.__setattr__(c, "space", "r31")
    object.__setattr__(c, "x", np.zeros(3))
    object.__setattr__(c, "xi", np.array([1.0, 0.0, 0.0]))
    with pytest.raises(EmbeddingDomainError):
        spaceforms.embed_element(c)


def test_embed_tau_hand_case():
    c = ContactElement(np.zeros(4), np.array([0.5, 0, 0, -0.5]), "r30")
    e = spaceforms.embed_element(c)
    assert np.allclose(e.x, 0) and np.allclose(e.xi, [-1, 0, 0])


def test_embed_tau_unit_normal_randomized():
    rng = np.random.default_rng(1)
    for _ in range(300):
        xi0 = rng.standard_normal(2) * 2
        xi1 = -(1 + xi0 @ xi0) / 2
        xi = np.concatenate([[xi1 + 1], xi0, [xi1]])
        y = rng.standard_normal(2)
        t = rng.standard_normal()
        x = np.concatenate([[t], y, [t]])
        # x must also satisfy <xi, x - p> style contact only for spheres;
        # the bundle just needs <x, nu> = 0 which holds by construction
        e = spaceforms.embed_element(ContactElement(x, xi, "r30"))
        assert abs(np.linalg.norm(e.xi) - 1.0) < 1e-12


def test_sigma_sphere_map_matches_coordinates():
    rng = np.random.default_rng(2)
    for _ in range(200):
        h = Sphere(rng.standard_normal(3) * 2, rng.standard_normal(), "r31")
        img = spaceforms.embed_sphere(h)
        assert spheres.sphere_coord(h).same_point(
            spheres.sphere_coord(img), tol=1e-9
        )
    # the worked instance: a unit hyperboloid about the origin maps to the
    # point sphere at (-1, 0, 0)
    img = spaceforms.embed_sphere(Sphere(np.zeros(3), 1.0, "r31"))
    assert np.allclose(img.center, [-1, 0, 0]) and img.radius == 0.0


def test_sigma_plane_map_matches_coordinates():
    rng = np.random.default_rng(3)
    for _ in range(200):
        xi0 = rng.standard_normal(2) * 0.8
        xi = np.concatenate([xi0, [np.sqrt(1 + xi0 @ xi0)]])
        pl = Plane(xi, rng.standard_normal(), "r31")
        img = spaceforms.embed_sphere(pl)
        assert spheres.sphere_coord(pl).same_point(
            spheres.sphere_coord(img), tol=1e-9
        )


def test_tau_sphere_map_matches_coordinates():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = rng.standard_normal(4) * 2
        img = spaceforms.embed_sphere(CSphere(p))
        assert spheres.sphere_coord(CSphere(p)).same_point(
            spheres.sphere_coord(img), tol=1e-9
        )


def sigma_image_literal(s):
    """The closed forms of the Lorentzian sphere images."""
    if isinstance(s, Sphere):
        return spheres.Sphere(np.concatenate([[-s.radius], s.center[:-1]]), -s.center[-1])
    xi1 = s.normal[-1]
    xi = np.concatenate([[1.0 / xi1], s.normal[:-1] / xi1])
    return spheres.Plane(xi / np.linalg.norm(xi), s.offset / xi1)


def tau_image_literal(s):
    """The closed forms of the degenerate-space sphere images."""
    if isinstance(s, CSphere):
        p0, p1 = s.p[1:-1], s.p[-1]
        return spheres.Sphere(np.concatenate([[p1 - s.radius], p0]), -p1)
    xi1 = s.normal[-1]
    xi = np.concatenate([[1.0 + 1.0 / xi1], s.normal[1:-1] / xi1])
    return spheres.Plane(xi / np.linalg.norm(xi), s.offset / xi1)


coords = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def spaceform_elements(draw):
    kind = draw(st.sampled_from(["hsphere", "plane_r31", "csphere", "plane_r30"]))
    v = np.array(draw(st.lists(coords, min_size=4, max_size=4)))
    if kind == "hsphere":
        return Sphere(v[:3], v[3], "r31")
    if kind == "csphere":
        return CSphere(v)
    xi0 = 0.5 * v[:2]
    if kind == "plane_r31":
        sign = 1.0 if v[2] >= 0 else -1.0
        return Plane(np.concatenate([xi0, [sign * np.sqrt(1 + xi0 @ xi0)]]), v[3], "r31")
    xi1 = -(1 + xi0 @ xi0) / 2
    return Plane(np.concatenate([[xi1 + 1], xi0, [xi1]]), v[3], "r30")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spaceform_elements())
def test_sphere_images_match_closed_forms(s):
    if s.space == "r31":
        got, ref = spaceforms.embed_sphere(s), sigma_image_literal(s)
    else:
        got, ref = spaceforms.embed_sphere(s), tau_image_literal(s)
    assert type(got) is type(ref)
    if isinstance(ref, spheres.Sphere):
        pairs = [(got.center, ref.center), (got.radius, ref.radius)]
    else:
        pairs = [(got.normal, ref.normal), (got.offset, ref.offset)]
    for a, b in pairs:
        assert np.abs(np.asarray(a) - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


def test_embeddings_preserve_oriented_contact():
    # tangent pairs in the Lorentzian space stay tangent in the image
    rng = np.random.default_rng(5)
    for _ in range(1000):
        xi0 = rng.standard_normal(2) * 0.7
        xi = np.concatenate([xi0, [np.sqrt(1 + xi0 @ xi0)]])
        x = rng.standard_normal(3)
        r1, r2 = rng.standard_normal(2)
        h1 = Sphere(x - r1 * xi, r1, "r31")
        h2 = Sphere(x - r2 * xi, r2, "r31")
        v1 = spheres.sphere_coord(h1).vec
        v2 = spheres.sphere_coord(h2).vec
        assert abs(lorentz.inner(v1, v2)) < 1e-9 * (1 + abs(np.dot(v1, v2)))
        i1 = spaceforms.embed_sphere(h1)
        i2 = spaceforms.embed_sphere(h2)
        assert spheres.oriented_contact(i1, i2, tol=1e-7)


def test_catenoid_shape_data(catenoid_patch):
    sd = catenoid_patch.shape
    U = catenoid_patch.axes.meshgrid()[0]
    assert fd.nanmax_abs(sd.r) < 1e-12
    assert fd.nanmax_abs(sd.rho - np.sqrt(2) * U * U) < 1e-10
    assert fd.nanmax_abs(np.sort(sd.k, axis=-1) - np.stack([-U ** -2, U ** -2], -1)) < 1e-10


def test_transfer_catenoid(catenoid_patch, embedded_catenoid):
    rep = spaceforms.transfer_check(catenoid_patch, embedded_catenoid)
    assert rep["radii_map"] < 1e-9
    assert rep["rho_scaling"] < 1e-9
    assert rep["Y_transfer"] < 1e-6
    assert rep["eta_transfer"] < 1e-6
    assert rep["g_transfer"] < 1e-6
    for key in ("native_Y_pairing", "native_eta_pairing",
                "euclidean_Y_pairing", "euclidean_eta_pairing"):
        assert rep[key] < 1e-10


# The transfer holds over the whole space-form families, up to rounding
# (measured: at most ~3e-12, on catenoids reaching u = 30): saddles t = c u v
# for every c away from the flat c = 0, and maximal catenoids over every
# u-interval [a, a * ratio] with a > 0.  Grids are 25 x 24, about 0.01 s an
# example.
SPACEFORM_FAMILIES = {
    "saddle_r30": st.builds(
        lambda c: {"builtin": "saddle_r30", "params": {"c": c},
                   "grid": {"u": [0.3, 1.2, 25], "v": [0.3, 1.2, 24]}},
        st.floats(0.2, 3.0) | st.floats(-3.0, -0.2)),
    "maximal_catenoid_r31": st.builds(
        lambda a, ratio: {"builtin": "maximal_catenoid_r31",
                          "grid": {"u": [a, a * ratio, 25], "v": [0.0, 2 * np.pi, 24],
                                   "periodic": ["v"]}},
        st.floats(0.05, 3.0), st.floats(1.5, 10.0)),
}


@pytest.mark.parametrize("family", sorted(SPACEFORM_FAMILIES))
def test_transfer_defects_over_space_form_families(family):
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(SPACEFORM_FAMILIES[family])
    def check(spec):
        native = patches.build_patch(spec)
        rep = spaceforms.transfer_check(native, spaceforms.embed_patch(native))
        for key, val in rep.items():
            assert val <= 1e-6, key

    check()


def test_transfer_saddle(saddle_patch):
    emb = spaceforms.embed_patch(saddle_patch)
    rep = spaceforms.transfer_check(saddle_patch, emb)
    for key, val in rep.items():
        assert val < 1e-9, key


def test_proposition_pairings_all_space_forms(torus_patch, catenoid_patch, saddle_patch):
    for p in (torus_patch, catenoid_patch, saddle_patch):
        rep = spaceforms.proposition_pairings(p)
        assert rep["Y_pairing"] < 1e-10, p.space
        assert rep["eta_pairing"] < 1e-10, p.space


def test_embedded_saddle_is_minimal(saddle_patch):
    from laguerre import minimality

    emb = spaceforms.embed_patch(saddle_patch)
    fld = hypersurface.analyze(emb)
    rep = minimality.minimality_report(fld)
    assert rep.verdict == "minimal" and rep.consistent


def test_embed_patch_identity_on_euclidean(torus_patch):
    assert spaceforms.embed_patch(torus_patch) is torus_patch


def test_transfer_check_needs_space_form(torus_patch):
    with pytest.raises(UsageError):
        spaceforms.transfer_check(torus_patch, torus_patch)


# --- one coordinate formula for the three layouts ----------------------------

# The closed forms of the coordinates, written out per layout: the sphere
# with center p and radius r (r = 0: the pencil's point sphere; C(p) has no
# radius entry) and the hyperplane with normal xi and offset lam (lam = <x, xi>:
# the pencil's tangent hyperplane).

def closed_sphere(space, p, r):
    if space == "r3":
        pp = p @ p
        return np.concatenate([[(1 + pp - r * r) / 2, (1 - pp + r * r) / 2], p, [-r]])
    pp = p[:-1] @ p[:-1] - p[-1] * p[-1]
    if space == "r31":
        return np.concatenate([[(1 + pp + r * r) / 2, (1 - pp - r * r) / 2, -r], p])
    return np.concatenate([[(1 + pp) / 2, (1 - pp) / 2], p])


def closed_plane(space, xi, lam):
    if space == "r3":
        return np.concatenate([[lam, -lam], xi, [1.0]])
    if space == "r31":
        return np.concatenate([[lam, -lam, 1.0], xi])
    return np.concatenate([[lam, -lam], xi])


def unit_normal(rng, space, m):
    """Unit (R^n), unit time-like (R^n_1) or null normal with <xi, nu> = 1 (R^n_0)."""
    v = rng.standard_normal(m)
    if space == "r3":
        return v / np.linalg.norm(v)
    if space == "r31":
        v[-1] = np.sqrt(1.0 + v[:-1] @ v[:-1])
        return v
    s = v[1:-1] @ v[1:-1]
    return np.concatenate([[(1 - s) / 2], v[1:-1], [-(1 + s) / 2]])


def assert_same_light_like_point(got, ref, scale):
    """got is light-like and, rescaled into the chart of ref, equals ref to
    1e-15 of ``scale``, the size of the terms summed in ref."""
    k = int(np.argmax(np.abs(ref)))
    assert np.abs(got * (ref[k] / got[k]) - ref).max() <= 1e-15 * max(1.0, scale)
    assert abs(lorentz.inner(got, got)) <= 1e-15 * (got @ got)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(space=st.sampled_from(["r3", "r31", "r30"]), kind=st.sampled_from(["sphere", "plane"]),
       n=st.sampled_from([3, 4]), seed=st.integers(0, 2**32 - 1), log_size=st.floats(-2.0, 2.0))
def test_coordinates_match_their_closed_forms(space, kind, n, seed, log_size):
    """Elements and pencils of every layout against their closed forms."""
    rng = np.random.default_rng(seed)
    size = 10.0 ** log_size
    m = n + 1 if space == "r30" else n
    x = rng.standard_normal(m) * size
    if space == "r30":
        x[0] = x[-1]   # on the degenerate hyperplane <x, nu> = 0
    xi = unit_normal(rng, space, m)
    g1, g2 = spheres.contact_pencil(x, xi, space)
    if kind == "sphere":
        r = 0.0 if space == "r30" else rng.standard_normal() * size
        element = (spheres.Sphere(x, r) if space == "r3" else
                   Sphere(x, r, "r31") if space == "r31" else CSphere(x))
        ref, scale = closed_sphere(space, x, r), x @ x + r * r
        pencil_member = g1, closed_sphere(space, x, 0.0), x @ x
    else:
        lam = rng.standard_normal() * size
        element = spheres.Plane(xi, lam, space)
        ref, scale = closed_plane(space, xi, lam), xi @ xi + 1
        pairing = x @ xi if space == "r3" else x[:-1] @ xi[:-1] - x[-1] * xi[-1]
        pencil_member = (g2, closed_plane(space, xi, pairing),
                         np.linalg.norm(x) * np.linalg.norm(xi))
    coord = spheres.sphere_coord(element)
    assert_same_light_like_point(coord.vec, ref, scale)
    assert_same_light_like_point(*pencil_member)


def parent_contact_pencil(x, xi, form, space):
    """The pencil as written out per member before the shared tail kernels."""
    def tail(v, c):
        if space == "r30":
            return v
        col = np.full(v.shape[:-1] + (1,), c)
        return np.concatenate([v, col] if space == "r3" else [col, v], axis=-1)

    xx = np.sum(form * x * x, axis=-1)[..., None]
    xxi = np.sum(form * x * xi, axis=-1)[..., None]
    return (np.concatenate([0.5 * (1.0 + xx), 0.5 * (1.0 - xx), tail(x, 0.0)], axis=-1),
            np.concatenate([xxi, -xxi, tail(xi, 1.0)], axis=-1))


@pytest.mark.parametrize("builtin, space", [
    ("torus", "r3"), ("torus4", "r3"), ("maximal_catenoid_r31", "r31"), ("saddle_r30", "r30"),
])
def test_pencil_is_bit_equal_to_the_member_formulas(builtin, space):
    patch = patches.build_patch({"builtin": builtin, "space": space})
    got = spheres.contact_pencil(patch.x, patch.xi, space)
    for g, ref in zip(got, parent_contact_pencil(patch.x, patch.xi, patch.form, space)):
        assert np.array_equal(g, ref)
