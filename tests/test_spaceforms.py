import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre import fd, hypersurface, lorentz, patches, spaceforms, spheres
from laguerre.errors import EmbeddingDomainError, UsageError
from laguerre.spaceforms import (ContactElementR30, ContactElementR31, CSphere,
                                 HSphere, PlaneR30, PlaneR31)


def test_spaceform_coord_hand_values():
    got = spaceforms.spaceform_sphere_coord(HSphere(np.zeros(3), 1.0)).vec
    assert np.allclose(got, [1, 0, -1, 0, 0, 0])
    got = spaceforms.spaceform_sphere_coord(CSphere(np.zeros(4)))
    # (1/2, 1/2, 0, 0, 0, 0) up to the canonical rescale
    assert got.same_point(spheres.ProjectivePoint(np.array([0.5, 0.5, 0, 0, 0, 0.0])))


def test_spaceform_coords_are_lightlike():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h = HSphere(rng.standard_normal(3) * 2, rng.standard_normal())
        v = spaceforms.spaceform_sphere_coord(h).vec
        assert abs(lorentz.inner(v, v)) < 1e-10 * np.dot(v, v)
        xi0 = rng.standard_normal(2) * 0.8
        xi = np.concatenate([xi0, [np.sqrt(1 + xi0 @ xi0)]])  # <xi, xi> = -1
        p = PlaneR31(xi, rng.standard_normal())
        v = spaceforms.spaceform_sphere_coord(p).vec
        assert abs(lorentz.inner(v, v)) < 1e-10 * np.dot(v, v)


def test_r30_plane_coordinate_lightlike():
    xi0 = np.array([0.3, -0.4])
    xi1 = -(1 + xi0 @ xi0) / 2
    xi = np.concatenate([[xi1 + 1], xi0, [xi1]])
    p = PlaneR30(xi, 1.7)
    v = spaceforms.spaceform_sphere_coord(p).vec
    assert abs(lorentz.inner(v, v)) < 1e-12 * np.dot(v, v)


def test_contact_element_validation():
    with pytest.raises(UsageError):
        ContactElementR31(np.zeros(3), np.array([1.0, 0, 0]))  # space-like normal
    with pytest.raises(UsageError):
        ContactElementR30(np.array([1.0, 0, 0, 0]), np.array([0.5, 0, 0, -0.5]))


def test_embed_sigma_hand_case():
    c = ContactElementR31(np.zeros(3), np.array([0.0, 0, 1]))
    e = spaceforms.embed_sigma(c)
    assert np.allclose(e.x, 0) and np.allclose(e.xi, [1, 0, 0])


def test_embed_sigma_domain_error():
    # <xi, xi> = -1 forces |xi_last| >= 1, so build a raw element to hit the guard
    c = ContactElementR31.__new__(ContactElementR31)
    object.__setattr__(c, "x", np.zeros(3))
    object.__setattr__(c, "xi", np.array([1.0, 0.0, 0.0]))
    with pytest.raises(EmbeddingDomainError):
        spaceforms.embed_sigma(c)


def test_embed_tau_hand_case():
    c = ContactElementR30(np.zeros(4), np.array([0.5, 0, 0, -0.5]))
    e = spaceforms.embed_tau(c)
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
        e = spaceforms.embed_tau(ContactElementR30(x, xi))
        assert abs(np.linalg.norm(e.xi) - 1.0) < 1e-12


def test_sigma_sphere_map_matches_coordinates():
    rng = np.random.default_rng(2)
    for _ in range(200):
        h = HSphere(rng.standard_normal(3) * 2, rng.standard_normal())
        img = spaceforms.sigma_sphere_image(h)
        assert spaceforms.spaceform_sphere_coord(h).same_point(
            spheres.sphere_coord(img), tol=1e-9
        )
    # the worked instance: a unit hyperboloid about the origin maps to the
    # point sphere at (-1, 0, 0)
    img = spaceforms.sigma_sphere_image(HSphere(np.zeros(3), 1.0))
    assert np.allclose(img.center, [-1, 0, 0]) and img.radius == 0.0


def test_sigma_plane_map_matches_coordinates():
    rng = np.random.default_rng(3)
    for _ in range(200):
        xi0 = rng.standard_normal(2) * 0.8
        xi = np.concatenate([xi0, [np.sqrt(1 + xi0 @ xi0)]])
        pl = PlaneR31(xi, rng.standard_normal())
        img = spaceforms.sigma_sphere_image(pl)
        assert spaceforms.spaceform_sphere_coord(pl).same_point(
            spheres.sphere_coord(img), tol=1e-9
        )


def test_tau_sphere_map_matches_coordinates():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = rng.standard_normal(4) * 2
        img = spaceforms.tau_sphere_image(CSphere(p))
        assert spaceforms.spaceform_sphere_coord(CSphere(p)).same_point(
            spheres.sphere_coord(img), tol=1e-9
        )


def sigma_image_literal(s):
    """The closed forms of the Lorentzian sphere images."""
    if isinstance(s, HSphere):
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
        return HSphere(v[:3], v[3])
    if kind == "csphere":
        return CSphere(v)
    xi0 = 0.5 * v[:2]
    if kind == "plane_r31":
        sign = 1.0 if v[2] >= 0 else -1.0
        return PlaneR31(np.concatenate([xi0, [sign * np.sqrt(1 + xi0 @ xi0)]]), v[3])
    xi1 = -(1 + xi0 @ xi0) / 2
    return PlaneR30(np.concatenate([[xi1 + 1], xi0, [xi1]]), v[3])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spaceform_elements())
def test_sphere_images_match_closed_forms(s):
    if isinstance(s, (HSphere, PlaneR31)):
        got, ref = spaceforms.sigma_sphere_image(s), sigma_image_literal(s)
    else:
        got, ref = spaceforms.tau_sphere_image(s), tau_image_literal(s)
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
        h1 = HSphere(x - r1 * xi, r1)
        h2 = HSphere(x - r2 * xi, r2)
        v1 = spaceforms.spaceform_sphere_coord(h1).vec
        v2 = spaceforms.spaceform_sphere_coord(h2).vec
        assert abs(lorentz.inner(v1, v2)) < 1e-9 * (1 + abs(np.dot(v1, v2)))
        i1 = spaceforms.sigma_sphere_image(h1)
        i2 = spaceforms.sigma_sphere_image(h2)
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
