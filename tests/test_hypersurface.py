import copy
import gc
import importlib.util
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import grid_leading, symmetric_jet, to_grid
from laguerre import (cli, fd, group, hypersurface, lorentz, minimality, patches, spaceforms,
                      spheres)
from laguerre.errors import DegenerateSurfaceError

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
    Y = torus_field.patch.lift.Y[:, iu, iv]
    assert np.abs(Y - np.sqrt(2) * np.array([3, -3, 1, 0, 0, 1])).max() < 1e-12
    eta = torus_field.patch.lift.eta[:, iu, iv]
    assert np.abs(eta - np.array([-1, 2, 1, 0, 0, -2])).max() < 1e-12
    assert lorentz.inner(eta, eta) == pytest.approx(0.0, abs=1e-12)
    assert lorentz.inner(eta, lorentz.wp(3)) == pytest.approx(-1.0, abs=1e-12)


def test_lift_invariants_everywhere(torus_field):
    Y, eta = torus_field.patch.lift.Y, torus_field.patch.lift.eta
    w = lorentz.wp(3)
    assert fd.max_abs(lorentz.inner(Y, Y)) < 1e-10
    assert fd.max_abs(lorentz.inner(Y, w)) < 1e-12
    assert fd.max_abs(lorentz.inner(eta, eta)) < 1e-10
    assert fd.max_abs(lorentz.inner(eta, w) + 1.0) < 1e-12
    assert fd.max_abs(lorentz.inner(eta, Y)) < 1e-10


def test_mean_curvature_sphere(torus_patch, torus_field):
    # [eta] classifies to the sphere centered at x + r xi; its signed radius
    # is -r (the pencil member through (x, xi) with that center)
    sd = torus_field.patch.shape
    for iu, iv in [(32, 0), (10, 17), (50, 40)]:
        el = spheres.classify_coord(
            spheres.ProjectivePoint(torus_field.patch.lift.eta[:, iu, iv]))
        x = torus_patch.x[:, iu, iv]
        xi = torus_patch.xi[:, iu, iv]
        r = sd.r[iu, iv]
        assert np.abs(el.center - (x + r * xi)).max() < 1e-10
        assert el.radius == pytest.approx(-r, rel=1e-10)


# --- metric -----------------------------------------------------------------

def test_metric_closed_form(torus_field):
    iu = 32
    g = to_grid(torus_field.g, torus_field.patch.axes)[:, :, iu, 0]
    assert np.abs(g - 2.0 * np.eye(2)).max() < 1e-3
    U = torus_field.patch.axes.meshgrid()[0]
    expect = np.zeros((2, 2) + U.shape)
    expect[0, 0] = 2.0 / np.cos(U) ** 2
    expect[1, 1] = 2.0
    assert fd.max_abs(np.subtract(*fd.crop(2, torus_field.g, expect))) < 1e-3


def test_metric_matches_exact_form_at_fine_resolution():
    p = patches.build_patch(FINE_TORUS)
    fld = hypersurface.analyze(p)
    assert fld.diagnostics["g_vs_rho2_III"] < 1e-6


def test_metric_is_flat_for_torus(torus_field):
    # Gauss curvature of g vanishes identically
    riem, g = fd.crop(2, torus_field.riemann, torus_field.g)
    K = riem[0, 0, 1] / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
    assert fd.max_abs(K) < 1e-5


def test_indefinite_metric_is_located_on_the_full_grid(torus_patch, monkeypatch):
    # g's window lacks two u-rows at each end, so the block flipped at window
    # index (10, 5) sits at grid index (12, 5).
    computed = hypersurface.InvariantField.g.func

    def flipped(fld):
        g = computed(fld).copy()
        g[:, :, 10, 5] *= -1.0
        return g

    monkeypatch.setattr(hypersurface.InvariantField, "g", property(flipped))
    with pytest.raises(DegenerateSurfaceError,
                       match=r"not positive definite at grid index \(12, 5\)"):
        hypersurface.analyze(torus_patch)


# --- frame and tensors --------------------------------------------------------

def test_shape_operator_spectrum(torus_field):
    dev = np.abs(torus_field.S_eigs - np.array([1.0, -1.0])[:, None, None] / np.sqrt(2))
    assert fd.max_abs(dev) < 1e-6


def test_s_eigs_match_radii_formula(torus_field):
    sd = torus_field.patch.shape
    expect = np.sort((sd.radii - sd.r) / sd.rho, axis=0)[::-1]
    assert fd.max_abs(torus_field.S_eigs - expect) < 1e-10


def test_b_eigs_match_radii_formula(torus_field):
    sd = torus_field.patch.shape
    expect = np.sort((sd.radii - sd.r) / sd.rho, axis=0)[::-1]
    assert fd.max_abs(np.subtract(*fd.crop(2, torus_field.B_eigs, expect))) < 1e-6


def test_trace_conditions(torus_residuals):
    assert torus_residuals["b_trace"] < 1e-6
    assert torus_residuals["b_sqnorm"] < 1e-6
    assert torus_residuals["l_trace_vs_lap"] < 1e-4


def test_torus_l_and_lap_norm_vanish(torus_field):
    # flat invariant metric forces tr L = 0 and a null Laplacian image
    trL = np.einsum("ab...,ab...->...", *fd.crop(2, torus_field.ginv, torus_field.L))
    assert fd.max_abs(trL) < 1e-4
    assert fd.max_abs(torus_field.lap_norm) < 1e-4


def test_frame_pairings_coarse(torus_field):
    res = hypersurface.frame_residuals(torus_field)
    for key, val in res.items():
        assert val < 1e-4, key


def test_frame_pairings_fine():
    p = patches.build_patch(FINE_TORUS)
    fld = hypersurface.analyze(p)
    for key, val in hypersurface.frame_residuals(fld).items():
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
        return {k: to_grid(v, p.axes)
                for k, v in hypersurface.structural_residual_fields(fld).items()}

    coarse = fields(65, 64)
    fine = fields(129, 128)
    for key in ["b_codazzi", "l_codazzi", "b_divergence", "gauss"]:
        c = coarse[key]
        f = fine[key][::2, ::2]  # same parameter points
        mask = np.isfinite(c) & np.isfinite(f)
        ratio = np.nanmax(c[mask]) / np.nanmax(f[mask])
        assert ratio > 8.0, (key, ratio)


def sampled_torus():
    """The default 65 x 64 torus rebuilt from its samples: finite-difference
    jets, on their 57 x 64 window."""
    torus = patches.build_patch({"builtin": "torus"})
    return patches.build_patch({"samples": {"points": grid_leading(torus.x, 1),
                                            "normals": grid_leading(torus.xi, 1)},
                                "grid": {"u": [-np.pi / 3, np.pi / 3, 65],
                                         "v": [0.0, 2 * np.pi, 64], "periodic": ["v"]}})


@pytest.mark.parametrize("surface", ["torus", "torus4", "sampled"])
def test_residual_maxima_are_the_maxima_of_the_residual_fields(surface):
    # structural_residuals reduces each residual tensor as it is formed;
    # its values are those of the per-point fields.
    if surface == "sampled":
        patch = sampled_torus()
    else:
        patch = patches.build_patch({"builtin": surface})
    fld = hypersurface.analyze(patch)
    fields = hypersurface.structural_residual_fields(fld)
    maxima = hypersurface.structural_residuals(fld)
    assert {k: maxima[k] for k in fields} == {k: fd.max_abs(v) for k, v in fields.items()}


def test_raw_B_asymmetry_is_bounded(graph3_field):
    # <d_a eta, d_b Y> is symmetric up to discretization: small, not zero.
    B_raw = graph3_field.B_raw
    asym = graph3_field.diagnostics["raw_B_asymmetry"]
    assert asym == fd.max_abs(B_raw - np.swapaxes(B_raw, 0, 1))
    assert 0.0 < asym < 1e-4


def test_b_diagonal_in_principal_gauge(torus_field):
    # in the eigenbasis of the shape operator the second fundamental form
    # of the lift is diagonal with entries (r_i - r)/rho; compare spectra
    sd = torus_field.patch.shape
    diag = (sd.radii - sd.r) / sd.rho
    got, want = fd.crop(2, np.sort(torus_field.B_eigs, axis=0), np.sort(diag, axis=0))
    assert fd.max_abs(got - want) < 1e-6


# --- transform equivariance ---------------------------------------------------

def test_lift_equivariance_under_group(torus_patch, torus_field):
    T = seeded_transform(101)
    moved = hypersurface.transform_patch(T, torus_patch)
    fld2 = hypersurface.analyze(moved)
    Y_push = np.einsum("i...,ij->j...", torus_field.patch.lift.Y, T.matrix)
    eta_push = np.einsum("i...,ij->j...", torus_field.patch.lift.eta, T.matrix)
    assert fd.max_abs(fld2.patch.lift.Y - Y_push) < 1e-8
    assert fd.max_abs(fld2.patch.lift.eta - eta_push) < 1e-8


def test_invariants_preserved_under_group(torus_patch, torus_field):
    for seed in (5, 6):
        T = seeded_transform(seed)
        moved = hypersurface.transform_patch(T, torus_patch)
        fld2 = hypersurface.analyze(moved)
        rep = hypersurface.compare_invariants(torus_field, fld2)
        assert rep["max_g_deviation"] < 1e-6
        assert rep["max_s_eig_deviation"] < 1e-6
        assert rep["max_b_eig_deviation"] < 1e-6


def image_radii(patch, T):
    """Principal radii of the image patch, exactly: T maps the curvature
    sphere gamma1 + r_i gamma2 to the sphere whose radius entry is r_i'."""
    g1, g2 = spheres.contact_pencil(patch.x, patch.xi, patch.space)
    curvature_spheres = g1 + patch.shape.radii[:, None] * g2
    return np.einsum("ki...,i->k...", curvature_spheres, T.matrix[:, -1])


def torus_family(builtin):
    return st.builds(lambda R, ratio: {"builtin": builtin, "params": {"R": R, "a": ratio * R}},
                     st.floats(1.5, 4.0), st.floats(0.2, 0.8))


def graph_family(quad, cubic, grid=None):
    """Translational graphs whose coefficients quad_i stay within 5% of
    ``quad`` and |cubic_i| <= ``cubic``, small enough that the principal
    curvatures stay apart on the grid."""
    def spec(q, c):
        return {"builtin": "translational_graph", "params": {"quad": list(q), "cubic": c},
                **({"grid": grid} if grid else {})}
    m = len(quad)
    return st.builds(spec, st.tuples(*(st.floats(*sorted((0.95 * q, 1.05 * q))) for q in quad)),
                     st.lists(st.floats(-cubic, cubic), min_size=m, max_size=m))


# g and the operator S_op are group invariants: on every torus (R > a),
# 3-torus and translational graph of the families they agree pointwise
# between a patch and its image, up to rounding (measured: g to ~4e-14, S_op
# to ~8e-15 of their max).  The family is the transforms whose image is
# immersed: a flow that takes a principal radius through zero turns the
# image into a front with a cusp (about 1 in 12 torus4 draws), so draws
# whose image radii come within 0.05 of zero are skipped.  Time budget: about
# 7 s of tier-1 time on one core: ~0.1 s per torus, ~0.5 s per torus4, ~0.03 s
# per 2-axis graph and ~0.3 s per 3-axis graph example.  The examples are
# drawn from a seed, so a failure is not shrunk: it reports at once.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
FAMILIES = {  # name -> (n, strategy of specs)
    "torus": (3, torus_family("torus")),
    "torus4": (4, torus_family("torus4")),
    "graph2": (3, graph_family([1.0, 0.5], 0.2)),
    "graph3": (4, graph_family([1.0, 0.7, 0.4], 0.1, {axis: [-0.25, 0.25, 21] for axis in "uvw"})),
}


@pytest.mark.parametrize("family, examples", [
    ("torus", 12), ("torus4", 6), ("graph2", 12), ("graph3", 6),
])
def test_invariants_preserved_over_parameter_families(family, examples):
    n, specs = FAMILIES[family]

    @settings(max_examples=examples, derandomize=True, deadline=None, phases=NO_SHRINK)
    @given(spec=specs, seed=st.integers(0, 2 ** 32 - 1))
    def check(spec, seed):
        patch = patches.build_patch(spec)
        T = group.random_transform(np.random.default_rng(seed), n, factors=4,
                                   translation_scale=0.3, flow_scale=0.2)
        assume(np.abs(image_radii(patch, T)).min() > 0.05)
        f1 = hypersurface.analyze(patch)
        f2 = hypersurface.analyze(hypersurface.transform_patch(T, patch))
        assert fd.max_abs(f2.g - f1.g) <= 1e-10 * fd.max_abs(f1.g)
        assert fd.max_abs(f2.S_op - f1.S_op) <= 1e-12 * fd.max_abs(f1.S_op)

    check()


# S_eigs is read off the curvature radii as (r_i - r) / rho; the spectrum of
# the operator S_op through the Cholesky reduction of I is the reference.
# The saddle graphs have curvatures of both signs, so their radii come in
# no fixed order and the sort is exercised; the 4-axis graph (m = 4,
# n = 5) takes the LAPACK path of the reference.  Time budget: about 2 s of
# tier-1 time on one core, at most ~0.1 s per example; no shrink phase.
SPECTRUM_FAMILIES = {
    **{name: specs for name, (_, specs) in FAMILIES.items()},
    "saddle3": graph_family([1.0, -0.7, 0.4], 0.05, dict.fromkeys("uvw", [-0.25, 0.25, 21])),
    "saddle4": graph_family([1.0, 0.6, -0.4, -0.8], 0.05,
                            dict.fromkeys("uvwt", [-0.25, 0.25, 9])),
}


@pytest.mark.parametrize("family", sorted(SPECTRUM_FAMILIES))
def test_s_spectrum_from_the_radii_matches_the_operator(family):
    @settings(max_examples=6, derandomize=True, deadline=None, phases=NO_SHRINK)
    @given(spec=SPECTRUM_FAMILIES[family])
    def check(spec):
        patch = patches.build_patch(spec)
        fld = hypersurface.InvariantField(patch)
        ref = fd.selfadjoint_eigvals(fld.S_op, patch.I, patch.Linv)[::-1]
        assert fd.max_abs(fld.S_eigs - ref) <= 1e-13 * fd.max_abs(ref)

    check()


# --- reductions over a short component axis -----------------------------------

REDUCTION_SPECS = {
    "torus": {"builtin": "torus"},
    "torus4": {"builtin": "torus4"},
    "graph4": {"builtin": "translational_graph",
               "params": {"quad": [1.0, 0.7, 0.4, 0.2], "cubic": [0.1, 0.05, -0.1, 0.05]},
               "grid": dict.fromkeys("uvwt", [-0.25, 0.25, 9])},
}


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(REDUCTION_SPECS))
def test_reductions_by_component_are_the_axis_reductions_bit_for_bit(name):
    # A reduction over the leading component axis is numpy's reduction over
    # the same components stored as a short contiguous trailing axis, bit for
    # bit.
    patch = patches.build_patch(REDUCTION_SPECS[name])
    trailing = lambda f: np.ascontiguousarray(grid_leading(f, 1))
    shape, x = patch.shape, trailing(patch.x).reshape(-1, len(patch.x))
    radii = trailing(shape.radii)
    assert bits(patch.diameter) == bits(np.linalg.norm(x.max(axis=0) - x.min(axis=0)))
    assert bits(shape.r) == bits(radii.mean(axis=-1))
    assert bits(shape.rho) == bits(np.sqrt(np.sum((radii - shape.r[..., None]) ** 2, axis=-1)))
    integrand = shape.rho ** (patch.n - 1) / np.prod(radii, axis=-1) * patch.area_element
    assert bits(hypersurface.laguerre_volume(patch)) == bits(fd.integrate(integrand, patch.axes))
    eigs = trailing(hypersurface.InvariantField(patch).S_eigs)
    grid_axes = tuple(range(patch.ngrid))
    extrema = cli._extrema(hypersurface.InvariantField(patch).S_eigs)
    assert bits(extrema["min"]) == bits(eigs.min(axis=grid_axes))
    assert bits(extrema["max"]) == bits(eigs.max(axis=grid_axes))


def test_transform_patch_consistency_with_contact_action(torus_patch):
    T = seeded_transform(7)
    moved = hypersurface.transform_patch(T, torus_patch)
    iu, iv = 20, 33
    c = spheres.ContactElement(torus_patch.x[:, iu, iv], torus_patch.xi[:, iu, iv])
    img = group.act_on_contact(T, c)
    assert np.abs(moved.x[:, iu, iv] - img.x).max() < 1e-10
    assert np.abs(moved.xi[:, iu, iv] - img.xi).max() < 1e-10


# --- exact jets of mapped patches ---------------------------------------------

# Exact jets agree with their 4th-order differences to ~1e-4 of the jet's max
# or better; a wrong jet misses by O(1).
JET_REL = 1e-3


def assert_jet_exact(jet, field, axes, name):
    """4th-order differences of ``field`` match its exact first jet ``jet`` on
    the valid interior, relative to the jet's max."""
    diff = fd.gradient(field, axes)
    assert (fd.max_abs(np.subtract(*fd.crop(axes.ndim, diff, jet)))
            <= JET_REL * fd.max_abs(jet)), name


def assert_jets_exact(patch):
    """The patch's dx and dxi against 4th-order differences of x and xi."""
    assert_jet_exact(patch.dx, patch.x, patch.axes, "dx")
    assert_jet_exact(patch.dxi, patch.xi, patch.axes, "dxi")


def test_mapped_patches_keep_the_stencil_order():
    torus = patches.build_patch({"builtin": "torus"}, fd_order=2)
    native = patches.build_patch({"builtin": "maximal_catenoid_r31"}, fd_order=2)
    assert (torus.axes.order, native.axes.order) == (2, 2)
    assert hypersurface.transform_patch(seeded_transform(1), torus).axes.order == 2
    assert spaceforms.embed_patch(native).axes.order == 2


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_transformed_jets_match_finite_differences(torus_patch, seed):
    T = seeded_transform(seed, translation_scale=0.3, flow_scale=0.2)
    assert_jets_exact(hypersurface.transform_patch(T, torus_patch))


@pytest.mark.parametrize("native", ["catenoid_patch", "saddle_patch"])
def test_embedded_jets_match_finite_differences(native, request):
    assert_jets_exact(spaceforms.embed_patch(request.getfixturevalue(native)))


def test_jets_of_an_image_of_an_image_match_finite_differences(torus_patch):
    # The second image maps the first jets the first image read off the torus.
    image = hypersurface.transform_patch(seeded_transform(3, translation_scale=0.3,
                                                          flow_scale=0.2), torus_patch)
    assert_jets_exact(hypersurface.transform_patch(
        seeded_transform(4, translation_scale=0.3, flow_scale=0.2), image))


def second_jets_held(patch):
    """Names of the arrays the patch holds with two direction axes (m, m, d, *G)."""
    return [name for name, value in vars(patch).items()
            if isinstance(value, np.ndarray) and value.ndim > patch.ngrid + 2]


@pytest.mark.parametrize("builtin", ["torus", "torus4", "maximal_catenoid_r31"])
def test_a_built_and_analyzed_builtin_holds_no_second_jet(builtin):
    # The build forms II = <d2x, xi> and drops d2x; the screen, an analysis
    # and the normal jets read no jet of second order.
    patch = patches.build_patch({"builtin": builtin})
    patch.dxi
    if patch.space == "r3":
        hypersurface.structural_residuals(hypersurface.analyze(patch))
    assert second_jets_held(patch) == []


# Patches read off a pencil: (source fixture, map).
MAPS = {"image": ("torus_patch", lambda p: hypersurface.transform_patch(seeded_transform(5), p)),
        "catenoid": ("catenoid_patch", spaceforms.embed_patch),
        "saddle": ("saddle_patch", spaceforms.embed_patch)}


@pytest.mark.parametrize("name", MAPS)
def test_mapped_patch_is_screened_and_analyzed_without_second_jets(name, request):
    # The screen reads II = -<dx, dxi> off the first jets, and an analysis
    # reads no jet of higher order: neither the mapped patch nor its source
    # holds a field with two direction axes.
    fixture, mapping = MAPS[name]
    source = copy.copy(request.getfixturevalue(fixture))
    mapped = mapping(source)
    hypersurface.structural_residuals(hypersurface.analyze(mapped))
    assert second_jets_held(mapped) == second_jets_held(source) == []


@pytest.mark.parametrize("name", MAPS)
def test_a_mapped_patch_and_its_source_are_freed_without_the_cycle_collector(name, request):
    # The source, the image and the image's on-read jets form no reference
    # cycle, so both go with their last reference, not at
    # the next full collection (a cycle held ~20 MB per fine compare request).
    fixture, mapping = MAPS[name]
    source = copy.copy(request.getfixturevalue(fixture))
    gc.collect()
    gc.disable()
    try:
        image = mapping(source)
        hypersurface.analyze(image).g
        refs = [weakref.ref(source), weakref.ref(image)]
        del source, image
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("name", MAPS)
def test_mapped_second_form_matches_its_differenced_first_jets(name, request):
    # II = -<dx, dxi> is symmetric as stored and equals <d2x, xi>, d2x taken
    # as 4th-order differences of the mapped patch's first jets.
    fixture, mapping = MAPS[name]
    mapped = mapping(request.getfixturevalue(fixture))
    II = mapped.II
    assert np.array_equal(II, np.swapaxes(II, 0, 1))
    d2x, xi = fd.crop(mapped.ngrid, fd.gradient(mapped.dx, mapped.axes), mapped.xi)
    II_diff = patches.second_fundamental(d2x, xi, mapped.form)
    assert (fd.max_abs(np.subtract(*fd.crop(mapped.ngrid, II_diff, II)))
            <= JET_REL * fd.max_abs(II))


BUILTIN_SPECS = {
    "torus": {"builtin": "torus"},
    "torus inward": {"builtin": "torus", "normal": "inward"},
    "torus4": {"builtin": "torus4"},
    "graph 2 axes": {"builtin": "translational_graph",
                     "params": {"quad": [1.0, 0.5], "cubic": [0.3, 0.2]}},
    "graph 3 axes": {"builtin": "translational_graph",
                     "params": {"quad": [1.0, 0.7, 0.4], "cubic": [0.1, 0.2, -0.1]},
                     "grid": {"u": [-0.25, 0.25, 17], "v": [-0.25, 0.25, 17],
                              "w": [-0.25, 0.25, 17]}},
    "catenoid": {"builtin": "maximal_catenoid_r31"},
    "saddle": {"builtin": "saddle_r30"},
}


@pytest.mark.parametrize("name", BUILTIN_SPECS)
def test_builtin_jet_tables_match_finite_differences(name):
    # Both tables of the builtin: the first-order one as dx, the second-order
    # one assembled into the symmetric second jets, every ambient component
    # (II reads only the normal one).
    spec = BUILTIN_SPECS[name]
    patch = patches.build_patch(spec)
    assert_jets_exact(patch)
    x, _, _, second = patches._builtin_jets(spec["builtin"], spec.get("params", {}), patch.axes)
    assert_jet_exact(symmetric_jet(second, x, 2), patch.dx, patch.axes, "d2x")


def test_transform_through_a_cusp_names_the_radius():
    # Radius 3 of this torus4 image passes through zero between grid points
    # (|r'| down to 1.1e-4), so the image is a front, not a patch.
    torus4 = patches.build_patch({"builtin": "torus4", "params": {"R": 1.5, "a": 0.5625}})
    T = group.random_transform(np.random.default_rng(1888728893), 4, factors=4,
                               translation_scale=0.3, flow_scale=0.2)
    with pytest.raises(DegenerateSurfaceError, match="radius 3 of the image passes through zero"
                                                     r".*grid index \(0, 9, 12\).*cusp"):
        hypersurface.transform_patch(T, torus4)


def test_transform_of_a_sampled_patch_through_a_cusp_names_a_finite_radius():
    # The same image from samples: the patch is the window of its jets, and
    # the diagnosis names the smallest radius there in the spec's grid.
    builtin = patches.build_patch({"builtin": "torus4", "params": {"R": 1.5, "a": 0.5625}})
    grid = {"u": [-np.pi / 3, np.pi / 3, 33], "v": [np.pi / 4, 3 * np.pi / 4, 25],
            "w": [0.0, 2 * np.pi, 24], "periodic": ["w"]}
    sampled = patches.build_patch({"samples": {"points": grid_leading(builtin.x, 1),
                                               "normals": grid_leading(builtin.xi, 1)},
                                   "grid": grid})
    T = group.random_transform(np.random.default_rng(1888728893), 4, factors=4,
                               translation_scale=0.3, flow_scale=0.2)
    with pytest.raises(DegenerateSurfaceError, match=r"radius 3 of the image passes through zero"
                                                     r" \(\|r'\| = 1\.1e-04 at grid index"
                                                     r" \(19, 9, 12\)\).*cusp"):
        hypersurface.transform_patch(T, sampled)


def test_radius_sign_change_alone_is_not_rejected(torus_patch, monkeypatch):
    # Draw 46 of the benchmark's compare transforms: an image radius changes
    # sign between grid points, yet the image passes the screen and analyze.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look it up
    spec.loader.exec_module(workloads)
    rng = np.random.default_rng(12345)
    for _ in range(47):
        script = workloads.transform_script(rng)
    T = group.compose_script(script)
    # Image radius i is the last entry of (gamma1 + r_i gamma2) T.
    g1, g2 = (np.einsum("i...,ij->j...", member, T.matrix)
              for member in spheres.contact_pencil(torus_patch.x, torus_patch.xi))
    radii = g1[-1] + torus_patch.shape.radii[1] * g2[-1]
    assert radii.min() < 0 < radii.max()
    hypersurface.analyze(hypersurface.transform_patch(T, torus_patch))


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
        rad = np.sort(shape.radii, axis=0)
        return (rad[0] - rad[1]) / (rad[0] - rad[2])

    q1, q2 = quotient(sd), quotient(sd2)
    assert fd.max_abs(q1 - q2) < 1e-8
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


@pytest.fixture(scope="module")
def torus4_field():
    return hypersurface.analyze(patches.build_patch({"builtin": "torus4"}))


def test_curvature_identities_bounded_on_torus4(torus4_field):
    # The invariant metric of torus4 is curved (|Riem| ~ 2.7, |Ric| ~ 1.0),
    # so every derivative slot of the pair curvature enters these residuals;
    # each is bounded against the largest term of its identity.  They read
    # 2.2e-4, 4.4e-4 and 1.4e-4 of it on the default grid.
    fld = torus4_field
    n = fld.patch.n
    res = hypersurface.structural_residuals(fld)
    riem, L, g, ricci, ginv = fld.crop(fld.riemann, fld.L, fld.g, fld.ricci, fld.ginv)
    trL = np.einsum("ab...,ab...->...", ginv, L)
    largest = {
        "gauss": max(fd.max_abs(riem), fd.max_abs(np.einsum("ab...,cd...->abcd...", L, g))),
        "ricci_vs_l": max(fd.max_abs(ricci), (n - 3) * fd.max_abs(L), fd.max_abs(trL * g)),
        "scalar_vs_lap": max(fd.max_abs(fld.scalar),
                             (n - 2) / (n - 1) * fd.max_abs(fld.lap_norm)),
    }
    assert largest["gauss"] > 2.0 and largest["ricci_vs_l"] > 0.9
    for key, scale in largest.items():
        assert res[key] <= 1e-3 * scale, key


def test_gauss_residual_is_the_maximum_over_every_block(torus4_field):
    # The Gauss residual is reduced block by block as its blocks are formed;
    # on torus4 (m = 3) the nine blocks differ and the first is not the
    # largest, so a reduction that misses a block reads low.
    fld = torus4_field
    blocks = list(hypersurface.gauss_residuals(*fld.crop(fld.riemann, fld.L, fld.g)))
    assert len(blocks) == 9
    largest = max(fd.max_abs(block) for block in blocks)
    assert fd.max_abs(blocks[0]) < largest
    assert hypersurface.structural_residuals(fld)["gauss"] == largest
    assert hypersurface.structural_residual_fields(fld)["gauss"].max() == largest


def test_keep_only_drops_the_other_fields_and_a_dropped_one_reads_the_same_bits():
    fld = hypersurface.analyze(patches.build_patch(SMALL_TORUS4))
    for name in ("Gamma", "riemann", "DB", "divB"):
        getattr(fld, name)
    before = {name: copy.deepcopy(value) for name, value in vars(fld).items()
              if name != "patch"}
    fld.keep_only("g", "B_eigs")
    assert set(vars(fld)) == {"patch", "g", "B_eigs"}
    assert "B_eigs" not in before   # formed by keep_only
    for name in ("Gamma", "riemann", "DB", "divB"):
        assert np.array_equal(getattr(fld, name), before[name], equal_nan=True), name


PASS_ONLY = {"Gamma", "DB", "DC", "riemann", "ricci", "scalar"}


def test_the_residual_pass_drops_its_own_fields():
    # Gamma, the covariant derivatives and the curvature fields are read by
    # the structure identities alone: each goes after its last residual.
    # div B and div C, which the minimality stage reads, are formed before
    # their covariant derivatives go when the caller keeps them.
    fld = hypersurface.analyze(patches.build_patch(SMALL_TORUS4))
    hypersurface.structural_residuals(fld)
    assert not PASS_ONLY & set(vars(fld))
    assert "divC" not in vars(fld)
    fld = hypersurface.analyze(fld.patch)
    hypersurface.structural_residuals(fld, keep=minimality.REPORT_FIELDS)
    assert not PASS_ONLY & set(vars(fld))
    assert {"divB", "divC", "dY", "deta", "N", "vielbein"} <= set(vars(fld))


# The 2- and 3-axis cubic graphs, where every term of the first-order
# identities is O(1) (on the tori the commutator, nabla B and C sit near zero).
CUBIC_GRAPHS = {
    "2-axis": {"builtin": "translational_graph",
               "params": {"quad": [1.0, 0.5], "cubic": [0.3, 0.2]},
               "grid": {"u": [-0.2, 0.2, 33], "v": [-0.2, 0.2, 33]}},
    "3-axis": {"builtin": "translational_graph",
               "params": {"quad": [1.0, 0.7, 0.4], "cubic": [0.2, -0.1, 0.15]},
               "grid": dict.fromkeys("uvw", [-0.2, 0.2, 25])},
}
# Each residual's bound, a fraction of the largest term of its identity.
# The largest terms and the residuals' fractions of them on the grids above:
#   2-axis: |B g^-1 L - (B g^-1 L)^T| 23, |nabla B - (nabla B)^T| 5.6,
#           <Delta Y, Delta Y> / 2(n-1) 88; 1.7e-5, 3.4e-6, 3.7e-4;
#   3-axis: 5.9, 7.1, 76; 1.6e-5, 2.1e-5, 5.3e-6.
#   4-axis (``graph4_field``, n = 5): 0.23, 3.2, 4.7; 2.1e-5, 3.1e-5, 5.5e-6.
FIRST_ORDER_BOUNDS = {
    "2-axis": {"c_exchange": 1e-4, "b_codazzi": 2e-5, "l_trace_vs_lap": 2e-3},
    "3-axis": {"c_exchange": 1e-4, "b_codazzi": 1e-4, "l_trace_vs_lap": 5e-5},
    "4-axis": {"c_exchange": 1e-4, "b_codazzi": 1e-4, "l_trace_vs_lap": 5e-5},
}
# The guard on the smallest largest term, so that a wrong sign shows: at
# n = 5 the commutator B g^-1 L - (B g^-1 L)^T is only 0.23 (|C| ~ 0.5).
SMALLEST_TERM = {"2-axis": 5.0, "3-axis": 5.0, "4-axis": 0.2}


@pytest.mark.parametrize("graph", sorted(FIRST_ORDER_BOUNDS))
def test_first_order_identities_bounded_on_the_cubic_graph(graph, request):
    # Each residual is bounded against the largest term of its identity; a
    # sign error in one term leaves a residual of the size of that term.
    fld = (request.getfixturevalue("graph4_field") if graph == "4-axis"
           else hypersurface.analyze(patches.build_patch(CUBIC_GRAPHS[graph])))
    n = fld.patch.n
    res = hypersurface.structural_residuals(fld)
    B, ginv, L = fld.crop(fld.B, fld.ginv, fld.L)
    BL = np.einsum("ab...,bc...,cd...->ad...", B, ginv, L)
    C, g = fld.crop(fld.C, fld.g)
    largest = {
        "c_exchange": max(fd.max_abs(fld.DC - np.swapaxes(fld.DC, 0, 1)),
                          fd.max_abs(BL - np.swapaxes(BL, 0, 1))),
        "b_codazzi": max(fd.max_abs(fld.DB - np.swapaxes(fld.DB, 0, 2)),
                         fd.max_abs(np.einsum("b...,ac...->cab...", C, g))),
        "l_trace_vs_lap": max(fd.max_abs(np.einsum("ab...,ab...->...", ginv, L)),
                              fd.max_abs(fld.lap_norm) / (2 * (n - 1))),
    }
    assert min(largest.values()) > SMALLEST_TERM[graph]
    for key, scale in largest.items():
        assert res[key] <= FIRST_ORDER_BOUNDS[graph][key] * scale, key


def test_dimension_coefficients_bounded_on_the_4_axis_graph(graph4_field):
    # n = 5: Ric = -(n - 3) L - tr(L) g and div B = (n - 2) C, each residual
    # bounded against the largest term of its identity (|Ric| 26.3 and
    # |div B| 1.7; they read 5e-6 and 6e-5 of it).  A coefficient right only
    # at n = 3 or 4, as (n - 3)^2 for (n - 3) or (n - 2) + (n - 3)(n - 4)
    # for (n - 2), leaves 2 |L| = 3.7 or 2 |C| = 1.0.
    fld = graph4_field
    n = fld.patch.n
    res = hypersurface.structural_residuals(fld)
    ricci, L, g, ginv = fld.crop(fld.ricci, fld.L, fld.g, fld.ginv)
    trL = np.einsum("ab...,ab...->...", ginv, L)
    largest = {
        "ricci_vs_l": max(fd.max_abs(ricci), (n - 3) * fd.max_abs(L), fd.max_abs(trL * g)),
        "b_divergence": max(fd.max_abs(fld.divB), (n - 2) * fd.max_abs(fld.C)),
    }
    assert n == 5 and min(largest.values()) > 1.0
    for key, scale in largest.items():
        assert res[key] <= 1e-3 * scale, key


def test_higher_dim_l_recovered_from_curvature(torus4_field):
    fld = torus4_field
    # for a 3-dimensional hypersurface the symmetric tensor L is a function
    # of the curvature of g: L = -Ric + (scalar/4) g
    ricci, scalar, g, L = fd.crop(3, fld.ricci, fld.scalar, fld.g, fld.L)
    trL_from = -scalar / 4.0
    L_curv = -ricci - trL_from * g
    assert fd.max_abs(L_curv - L) < 1e-3


def test_frame_and_tensors_entry_point(torus_patch):
    fld = hypersurface.analyze(torus_patch)
    assert fld.EY.shape == fld.dY.shape


@pytest.mark.parametrize("builtin", ["torus", "torus4"])
def test_invariant_fields_have_the_documented_shapes(builtin):
    # fd's table: the component axes first, then the m grid axes of the
    # field's window, which keeps every point of a periodic axis.
    fld = hypersurface.analyze(patches.build_patch({"builtin": builtin}))
    axes, m, d = fld.patch.axes, fld.patch.ngrid, fld.patch.n + 3
    P = m * (m - 1) // 2
    comps = {"dY": (m, d), "deta": (m, d), "g": (m, m), "ginv": (m, m), "sqrt_det": (),
             "Gamma": (m, m, m), "lapY": (d,), "lap_norm": (), "N": (d,), "B_raw": (m, m),
             "B": (m, m), "L": (m, m), "C": (m,), "vielbein": (m, m), "EY": (m, d),
             "B_frame": (m, m), "C_frame": (m,), "B_eigs": (m,), "S_op": (m, m), "S_eigs": (m,),
             "riemann": (P, m, m), "ricci": (m, m), "scalar": (), "DB": (m, m, m),
             "DC": (m, m), "divB": (m,), "divC": (), "LB": ()}
    for name, lead in comps.items():
        f = getattr(fld, name)
        assert f.ndim == len(lead) + m and f.shape[:len(lead)] == lead, name
        margins = fd.margins(f, axes)
        assert all(k >= 0 and (k == 0 or not per) for k, per in zip(margins, axes.periodic)), name
    assert [minor.shape for minor in fld.minors] == [fld.g.shape[2:]] * m


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
PATCH_ON_READ = ("dxi", "third_form", "g_exact", "area_element", "lift")
FIELD_ON_READ = ("dY", "g", "minors", "ginv", "sqrt_det", "Gamma", "lapY", "lap_norm", "N",
                 "deta", "B_raw", "B", "L", "C", "vielbein", "EY", "B_frame",
                 "C_frame", "B_eigs", "S_op", "S_eigs", "riemann", "ricci", "scalar",
                 "diagnostics", "DB", "DC", "divB", "divC", "LB")


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
        return [value.Y, value.eta]
    return [value]


@settings(max_examples=12, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(st.permutations(PATCH_ON_READ + FIELD_ON_READ))
def test_on_read_fields_independent_of_read_order(order):
    ref = read_all(PATCH_ON_READ + FIELD_ON_READ)
    got = read_all(order)
    for name, value in ref.items():
        for a, b in zip(as_arrays(got[name]), as_arrays(value)):
            assert np.array_equal(a, b, equal_nan=True), name


def test_L_and_C_keep_no_gradient_of_N():
    # L and C are formed from one gradient of N, which is not kept: once both
    # are read, no value cached on the field equals that gradient.
    fld = hypersurface.analyze(patches.build_patch(SMALL_TORUS4))
    fld.L, fld.C
    dN = fd.gradient(fld.N, fld.patch.axes)
    cached = [v for value in vars(fld).values()
              for v in (value if isinstance(value, tuple) else (value,))]
    assert not any(isinstance(v, np.ndarray) and v.shape == dN.shape
                   and np.array_equal(v, dN, equal_nan=True) for v in cached)
