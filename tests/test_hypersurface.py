import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerre import fd, group, hypersurface, lorentz, patches, spaceforms, spheres

# A patch away from the secant blow-up, fine enough for the 1e-6 pointwise
# agreements between the finite-difference metric and its exact form.
FINE_TORUS = {
    "builtin": "torus", "params": {"R": 2.0, "a": 1.0},
    "grid": {"u": [-np.pi / 4, np.pi / 4, 129], "v": [0.0, 2 * np.pi, 128],
             "periodic": ["v"]},
}


def seeded_transform(seed, **kw):
    rng = np.random.default_rng(seed)
    return group.random_transform(rng, 3, factors=4,
                                  translation_scale=kw.get("translation_scale", 0.4),
                                  flow_scale=kw.get("flow_scale", 0.25))


# --- lift -------------------------------------------------------------------

def test_lift_hand_values(torus_field):
    iu, iv = 32, 0
    Y = torus_field.lift.Y[iu, iv]
    assert np.abs(Y - np.sqrt(2) * np.array([3, -3, 1, 0, 0, 1])).max() < 1e-12
    eta = torus_field.lift.eta[iu, iv]
    assert np.abs(eta - np.array([-1, 2, 1, 0, 0, -2])).max() < 1e-12
    assert lorentz.inner(eta, eta) == pytest.approx(0.0, abs=1e-12)
    assert lorentz.inner(eta, lorentz.wp(3)) == pytest.approx(-1.0, abs=1e-12)


def test_lift_invariants_everywhere(torus_field):
    Y, eta = torus_field.lift.Y, torus_field.lift.eta
    w = lorentz.wp(3)
    assert fd.nanmax_abs(lorentz.inner(Y, Y)) < 1e-10
    assert fd.nanmax_abs(lorentz.inner(Y, w)) < 1e-12
    assert fd.nanmax_abs(lorentz.inner(eta, eta)) < 1e-10
    assert fd.nanmax_abs(lorentz.inner(eta, w) + 1.0) < 1e-12
    assert fd.nanmax_abs(lorentz.inner(eta, Y)) < 1e-10


def test_mean_curvature_sphere(torus_patch, torus_field):
    # [eta] classifies to the sphere centered at x + r xi; its signed radius
    # is -r (the pencil member through (x, xi) with that center)
    sd = torus_field.patch.shape
    for iu, iv in [(32, 0), (10, 17), (50, 40)]:
        el = spheres.classify_coord(spheres.ProjectivePoint(torus_field.lift.eta[iu, iv]))
        x = torus_patch.x[iu, iv]
        xi = torus_patch.xi[iu, iv]
        r = sd.r[iu, iv]
        assert np.abs(el.center - (x + r * xi)).max() < 1e-10
        assert el.radius == pytest.approx(-r, rel=1e-10)


# --- metric -----------------------------------------------------------------

def test_metric_closed_form(torus_field):
    iu = 32
    g = torus_field.g[iu, 0]
    assert np.abs(g - 2.0 * np.eye(2)).max() < 1e-3
    U = torus_field.patch.axes.meshgrid()[0]
    expect = np.zeros_like(torus_field.g)
    expect[..., 0, 0] = 2.0 / np.cos(U) ** 2
    expect[..., 1, 1] = 2.0
    assert fd.nanmax_abs(torus_field.g - expect) < 1e-3


def test_metric_matches_exact_form_at_fine_resolution():
    p = patches.build_patch(FINE_TORUS)
    fld = hypersurface.analyze(p)
    assert fld.diagnostics["g_vs_rho2_III"] < 1e-6


def test_laguerre_metric_op(torus_patch, torus_field):
    g = hypersurface.laguerre_metric(torus_field.lift.Y, torus_patch.axes)
    assert fd.nanmax_abs(g - torus_field.g) < 1e-12


def test_metric_is_flat_for_torus(torus_field):
    # Gauss curvature of g vanishes identically
    K = torus_field.riemann[..., 0, 1, 0, 1] / (
        torus_field.g[..., 0, 0] * torus_field.g[..., 1, 1]
        - torus_field.g[..., 0, 1] ** 2
    )
    assert fd.nanmax_abs(K) < 1e-5


# --- frame and tensors --------------------------------------------------------

def test_shape_operator_spectrum(torus_field):
    dev = np.abs(torus_field.S_eigs - np.array([1.0, -1.0]) / np.sqrt(2))
    assert fd.nanmax_abs(dev) < 1e-6


def test_s_eigs_match_radii_formula(torus_field):
    sd = torus_field.patch.shape
    expect = np.sort((sd.radii - sd.r[..., None]) / sd.rho[..., None], axis=-1)[..., ::-1]
    assert fd.nanmax_abs(torus_field.S_eigs - expect) < 1e-10


def test_b_eigs_match_radii_formula(torus_field):
    sd = torus_field.patch.shape
    expect = np.sort((sd.radii - sd.r[..., None]) / sd.rho[..., None], axis=-1)[..., ::-1]
    assert fd.nanmax_abs(torus_field.B_eigs - expect) < 1e-6


def test_trace_conditions(torus_residuals):
    assert torus_residuals["b_trace"] < 1e-6
    assert torus_residuals["b_sqnorm"] < 1e-6
    assert torus_residuals["l_trace_vs_lap"] < 1e-4


def test_torus_l_and_lap_norm_vanish(torus_field):
    # flat invariant metric forces tr L = 0 and a null Laplacian image
    trL = np.einsum("...ab,...ab->...", torus_field.ginv, torus_field.L)
    assert fd.nanmax_abs(trL) < 1e-4
    assert fd.nanmax_abs(torus_field.lap_norm) < 1e-4


def test_frame_pairings_coarse(torus_field):
    res = torus_field.frame.pairing_residuals()
    for key, val in res.items():
        assert val < 1e-4, key


def test_frame_pairings_fine():
    p = patches.build_patch(FINE_TORUS)
    fld = hypersurface.analyze(p)
    for key, val in fld.frame.pairing_residuals().items():
        assert val < 1e-6, key


def test_structure_identities_small_on_torus(torus_residuals):
    for key in ["l_codazzi", "c_exchange", "b_codazzi", "gauss",
                "b_divergence", "ricci_vs_l", "scalar_vs_lap"]:
        assert torus_residuals[key] < 5e-4, key


def test_residual_convergence_under_refinement():
    def fields(nu, nv):
        p = patches.build_patch({
            "builtin": "torus", "params": {"R": 2.0, "a": 1.0},
            "grid": {"u": [-np.pi / 3, np.pi / 3, nu], "v": [0.0, 2 * np.pi, nv],
                     "periodic": ["v"]},
        })
        fld = hypersurface.analyze(p)
        return hypersurface.structural_residual_fields(fld)

    coarse = fields(65, 64)
    fine = fields(129, 128)
    for key in ["b_codazzi", "l_codazzi", "b_divergence", "gauss"]:
        c = coarse[key]
        f = fine[key][::2, ::2]  # same parameter points
        mask = np.isfinite(c) & np.isfinite(f)
        ratio = np.nanmax(c[mask]) / np.nanmax(f[mask])
        assert ratio > 8.0, (key, ratio)


def test_b_diagonal_in_principal_gauge(torus_field):
    # in the eigenbasis of the shape operator the second fundamental form
    # of the lift is diagonal with entries (r_i - r)/rho; compare spectra
    sd = torus_field.patch.shape
    diag = (sd.radii - sd.r[..., None]) / sd.rho[..., None]
    got = np.sort(torus_field.B_eigs, axis=-1)
    want = np.sort(diag, axis=-1)
    assert fd.nanmax_abs(got - want) < 1e-6


# --- transform equivariance ---------------------------------------------------

def test_lift_equivariance_under_group(torus_patch, torus_field):
    T = seeded_transform(101)
    moved = hypersurface.transform_patch(T, torus_patch)
    fld2 = hypersurface.analyze(moved)
    Y_push = np.einsum("...i,ij->...j", torus_field.lift.Y, T.matrix)
    eta_push = np.einsum("...i,ij->...j", torus_field.lift.eta, T.matrix)
    assert fd.nanmax_abs(fld2.lift.Y - Y_push) < 1e-8
    assert fd.nanmax_abs(fld2.lift.eta - eta_push) < 1e-8


def test_invariants_preserved_under_group(torus_patch, torus_field):
    for seed in (5, 6):
        T = seeded_transform(seed)
        moved = hypersurface.transform_patch(T, torus_patch)
        fld2 = hypersurface.analyze(moved)
        rep = hypersurface.compare_invariants(torus_field, fld2)
        assert rep["max_g_deviation"] < 1e-6
        assert rep["max_s_eig_deviation"] < 1e-6
        assert rep["max_b_eig_deviation"] < 1e-6


def test_transform_patch_consistency_with_contact_action(torus_patch):
    T = seeded_transform(7)
    moved = hypersurface.transform_patch(T, torus_patch)
    iu, iv = 20, 33
    c = spheres.ContactElement(torus_patch.x[iu, iv], torus_patch.xi[iu, iv])
    img = group.act_on_contact(T, c)
    assert np.abs(moved.x[iu, iv] - img.x).max() < 1e-10
    assert np.abs(moved.xi[iu, iv] - img.xi).max() < 1e-10


# --- exact jets of mapped patches ---------------------------------------------

# Exact jets agree with their 4th-order differences to ~1e-4 of the jet's max
# or better; a wrong jet misses by O(1).
JET_REL = 1e-3


def assert_jets_exact(patch):
    """4th-order differences of x, dx, xi and dxi match the stored dx, d2x,
    dxi and d2xi on the valid interior, relative to each jet's max."""
    axes = patch.axes
    for field, jet in (("x", "dx"), ("dx", "d2x"), ("xi", "dxi"), ("dxi", "d2xi")):
        exact = getattr(patch, jet)
        diff = fd.gradient(getattr(patch, field), axes.ndim, axes.spacings, axes.periodic, 4)
        assert fd.nanmax_abs(diff - exact) <= JET_REL * fd.nanmax_abs(exact), jet


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_transformed_jets_match_finite_differences(torus_patch, seed):
    T = seeded_transform(seed, translation_scale=0.3, flow_scale=0.2)
    assert_jets_exact(hypersurface.transform_patch(T, torus_patch))


@pytest.mark.parametrize("native", ["catenoid_patch", "saddle_patch"])
def test_embedded_jets_match_finite_differences(native, request):
    assert_jets_exact(spaceforms.embed_patch(request.getfixturevalue(native)))


def test_curvature_quotient_invariant_in_higher_dim():
    p = patches.build_patch({
        "builtin": "translational_graph",
        "params": {"quad": [1.0, 0.7, 0.4], "cubic": [0.1, 0.0, -0.1]},
        "grid": {"u": [-0.25, 0.25, 17], "v": [-0.25, 0.25, 17],
                 "w": [-0.25, 0.25, 17]},
    })
    sd = patches.shape_data(p)
    rng = np.random.default_rng(31)
    T = group.random_transform(rng, 4, factors=4, translation_scale=0.2, flow_scale=0.15)
    moved = hypersurface.transform_patch(T, p)
    sd2 = patches.shape_data(moved)

    def quotient(shape):
        rad = np.sort(shape.radii, axis=-1)
        return (rad[..., 0] - rad[..., 1]) / (rad[..., 0] - rad[..., 2])

    q1, q2 = quotient(sd), quotient(sd2)
    assert fd.nanmax_abs(q1 - q2) < 1e-8
    assert np.nanstd(q1) > 1e-3  # the quotient genuinely varies on this patch


# --- volume -------------------------------------------------------------------

def test_volume_closed_form(torus_patch):
    vol = hypersurface.laguerre_volume(torus_patch)
    exact = 2 * np.pi * 4.0 * np.log(2 + np.sqrt(3))
    assert vol == pytest.approx(exact, rel=1e-4)


def test_volume_two_forms_agree(torus_patch):
    v1 = hypersurface.laguerre_volume(torus_patch)
    v2 = hypersurface.volume_via_curvature_quotient(torus_patch)
    assert v1 == pytest.approx(v2, rel=1e-6)


def test_volume_invariant_under_group(torus_patch):
    T = seeded_transform(11)
    moved = hypersurface.transform_patch(T, torus_patch)
    v1 = hypersurface.laguerre_volume(torus_patch)
    v2 = hypersurface.laguerre_volume(moved)
    assert v2 == pytest.approx(v1, rel=1e-4)


# --- comparison ---------------------------------------------------------------

def test_compare_self_is_zero(torus_field):
    rep = hypersurface.compare_invariants(torus_field, torus_field)
    assert rep["max_g_deviation"] == 0.0
    assert rep["max_s_eig_deviation"] == 0.0


def test_compare_different_tori(torus_field):
    p2 = patches.build_patch({
        "builtin": "torus", "params": {"R": 3.0, "a": 1.0},
        "grid": {"u": [-np.pi / 3, np.pi / 3, 65], "v": [0.0, 2 * np.pi, 64],
                 "periodic": ["v"]},
    })
    fld2 = hypersurface.analyze(p2)
    rep = hypersurface.compare_invariants(torus_field, fld2)
    assert rep["max_g_deviation"] > 1.0


def test_higher_dim_l_recovered_from_curvature():
    p = patches.build_patch({"builtin": "torus4"})
    fld = hypersurface.analyze(p)
    # for a 3-dimensional hypersurface the symmetric tensor L is a function
    # of the curvature of g: L = -Ric + (scalar/4) g
    trL_from = -fld.scalar / 4.0
    L_curv = -fld.ricci - trL_from[..., None, None] * fld.g
    assert fd.nanmax_abs(L_curv - fld.L) < 1e-3


def test_frame_and_tensors_entry_point(torus_patch):
    fld = hypersurface.analyze(torus_patch)
    frame = fld.frame
    assert frame.EY.shape == fld.dY.shape
    assert fld.residuals == {}


def test_compare_requires_matching_grids(torus_field):
    p2 = patches.build_patch({
        "builtin": "torus", "params": {"R": 2.0, "a": 1.0},
        "grid": {"u": [-np.pi / 3, np.pi / 3, 33], "v": [0.0, 2 * np.pi, 32],
                 "periodic": ["v"]},
    })
    fld2 = hypersurface.analyze(p2)
    with pytest.raises(Exception, match="grid"):
        hypersurface.compare_invariants(torus_field, fld2)


# --- fields computed on first read ------------------------------------------

SMALL_TORUS4 = {"builtin": "torus4", "grid": {
    "u": [-np.pi / 3, np.pi / 3, 21], "v": [np.pi / 4, 3 * np.pi / 4, 21],
    "w": [0.0, 2 * np.pi, 12], "periodic": ["w"]}}
# Values the build does not read, on the patch and on the analyzed field.
PATCH_ON_READ = ("dxi", "d2xi", "third_form", "lift")
FIELD_ON_READ = ("vielbein", "B_frame", "L_frame", "C_frame", "B_eigs", "S_op", "S_eigs",
                 "riemann", "ricci", "scalar", "g_exact", "diagnostics", "DB", "DC", "divC",
                 "LB")


def read_all(names):
    """Copies of every on-read value of a fresh torus4 patch and its field,
    each taken when it is read in the order ``names``; the field is analyzed
    when a name first needs it."""
    patch = patches.build_patch(SMALL_TORUS4)
    fld, values = None, {}
    for name in names:
        if name in FIELD_ON_READ and fld is None:
            fld = hypersurface.analyze(patch)
        values[name] = copy.deepcopy(getattr(fld if name in FIELD_ON_READ else patch, name))
    return values


def as_arrays(value):
    if isinstance(value, dict):
        return [np.asarray(value[k]) for k in sorted(value)]
    if isinstance(value, patches.LaguerreLift):
        return [value.y, value.Y, value.eta, value.rho, value.r]
    return [value]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.permutations(PATCH_ON_READ + FIELD_ON_READ))
def test_on_read_fields_independent_of_read_order(order):
    ref = read_all(PATCH_ON_READ + FIELD_ON_READ)
    got = read_all(order)
    for name, value in ref.items():
        for a, b in zip(as_arrays(got[name]), as_arrays(value)):
            assert np.array_equal(a, b, equal_nan=True), name
