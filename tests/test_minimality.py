import numpy as np
import pytest

from conftest import to_grid
from laguerre import fd, hypersurface, minimality, patches, spaceforms
from laguerre.errors import UsageError


def test_torus_is_not_minimal(torus_report):
    assert torus_report.verdict == "non-minimal"
    assert torus_report.lap_verdict == "non-minimal"
    assert torus_report.consistent


def test_minimality_report_releases_its_operands_as_it_goes():
    # d eta, dY, N, the frame and the cone lift go once the components of
    # Delta eta, B, L, C and C in the frame are formed; nabla B after div B,
    # nabla C and Gamma after div C, L, C and B after <L, B>, and the chain
    # S -> dxi -> III after the third-form Laplacian (n = 3), its last reader.
    fld = hypersurface.analyze(patches.build_patch({"builtin": "torus"}))
    minimality.minimality_report(fld)
    assert not {"DB", "DC", "Gamma", "_LC", "B", "B_raw", "lapY", "deta", "dY", "N",
                "vielbein"} & set(vars(fld))
    assert not {"lift", *patches.CHAIN} & set(vars(fld.patch))


def test_torus_el_residual_closed_form(torus_field):
    # for the torus both criticality forms are constant: the divergence form
    # equals sqrt(2)/R^2 in magnitude everywhere
    sum_form, div_form = minimality.el_residual(torus_field)
    expect = np.sqrt(2) / 4.0
    assert abs(np.nanmedian(np.abs(div_form)) - expect) < 1e-5
    assert abs(np.nanmedian(np.abs(sum_form)) - expect) < 1e-5
    # n = 3: the forms coincide
    assert fd.max_abs(np.subtract(*fd.crop(2, sum_form, div_form))) < 1e-3


def test_torus_laplacian_r_closed_form(torus_patch, torus_shape):
    lap = minimality.third_form_laplacian_r(torus_patch, torus_shape.r)
    assert to_grid(lap, torus_patch.axes)[32, 0] == pytest.approx(-1.0, abs=1e-4)
    U = torus_patch.axes.meshgrid()[0]
    closed, lap = fd.crop(2, -np.cos(U) ** -3, lap)  # -(R/2) sec^3 u with R = 2
    assert fd.max_abs(lap - closed) < 1e-3
    # the max over the window matches the closed form at its edge
    assert fd.max_abs(lap) == pytest.approx(fd.max_abs(closed), rel=1e-3)


def test_laplacian_requires_surface_case():
    p = patches.build_patch({"builtin": "torus4"})
    with pytest.raises(UsageError):
        minimality.third_form_laplacian_r(p, p.shape.r)


def test_laplacian_annihilates_constants(torus_patch, torus_shape):
    lap1 = minimality.third_form_laplacian_r(torus_patch, torus_shape.r)
    lap2 = minimality.third_form_laplacian_r(torus_patch, torus_shape.r + 17.5)
    assert fd.max_abs(lap1 - lap2) < 1e-10


def test_bridge_identity_on_torus(torus_patch, torus_report):
    assert torus_report.crosscheck is not None
    assert torus_report.crosscheck < 1e-3


def test_eta_laplacian_expansion(torus_report):
    diag = torus_report.diagnostics
    assert diag["wp_component_minus_1"] < 1e-3
    assert diag["tangent_vs_C"] < 1e-3      # vanishes for surfaces
    assert diag["y_component_vs_el"] < 1e-3
    assert diag["eta_component"] < 1e-8
    assert diag["n_component"] < 1e-3


def test_tangent_vs_C_where_C_does_not_vanish(graph3_field):
    # n = 4: the tangent components of Delta eta are (n - 3) C_i = C_i, and
    # C is of order 5 on this graph.
    diag = minimality.eta_laplacian_diagnostics(graph3_field)
    assert fd.max_abs(graph3_field.C_frame) > 1.0
    assert diag["tangent_vs_C"] < 1e-3 * fd.max_abs(graph3_field.C_frame)


def test_tangent_vs_C_on_the_4_axis_graph(graph4_field):
    # n = 5: the tangent components are (n - 3) C_i = 2 C_i, with |C| 0.86;
    # the defect reads 4e-5 of it, and (n - 3)^2 C_i would leave 1.7.
    diag = minimality.eta_laplacian_diagnostics(graph4_field)
    assert graph4_field.patch.n == 5 and fd.max_abs(graph4_field.C_frame) > 0.5
    assert diag["tangent_vs_C"] < 1e-3 * fd.max_abs(graph4_field.C_frame)


def test_reported_el_forms_discrepancy():
    # n = 4: the report's discrepancy is max |sum form - 2 div form|, small
    # but not zero.
    fld = hypersurface.analyze(patches.build_patch({"builtin": "torus4"}))
    reported = minimality.minimality_report(fld).to_json()["el_forms_discrepancy"]
    sum_form, div_form = minimality.el_residual(fld)
    assert reported == fd.max_abs(np.subtract(*fd.crop(3, sum_form, 2.0 * div_form)))
    assert 0.0 < reported < 5e-3


def test_el_forms_agree_on_the_4_axis_graph(graph4_field):
    # n = 5: the sum form is (n - 2) = 3 times the div form.  The
    # discrepancy reads 3.6e-5 of the sum form's max (8.2e-4 against 22.6);
    # a divisor right only at n = 3 and 4, (n - 2) + (n - 3)(n - 4), leaves
    # 3.8e-2 of it.
    rep = minimality.minimality_report(graph4_field)
    assert graph4_field.patch.n == 5 and rep.max_el_residual > 10.0
    assert rep.el_forms_discrepancy < 2e-4 * rep.max_el_residual


def test_default_threshold_is_pinned(torus_patch, torus_report):
    # 1e-3 times the grid median of rho^3, with rho = sqrt(2) sec u on the torus.
    U = torus_patch.axes.meshgrid()[0]
    expect = 1e-3 * np.median((np.sqrt(2.0) / np.cos(U)) ** 3)
    assert torus_report.threshold == pytest.approx(expect, rel=1e-12)
    assert torus_report.to_json()["threshold"] == torus_report.threshold


def test_embedded_catenoid_is_minimal(embedded_catenoid):
    fld = hypersurface.analyze(embedded_catenoid)
    rep = minimality.minimality_report(fld)
    assert rep.verdict == "minimal"
    assert rep.lap_verdict == "minimal"
    assert rep.consistent
    assert rep.max_laplacian_r < 1e-6
    assert rep.max_el_div_form < 1e-4


def test_verdict_threshold_override(torus_field):
    rep = minimality.minimality_report(torus_field, threshold=1e9)
    assert rep.verdict == "minimal"  # absurd threshold flips the verdict
    assert rep.threshold == 1e9


def test_el_forms_scale_relation():
    # in higher dimension the sum form is (n - 2) times the divergence form
    p = patches.build_patch({"builtin": "torus4"})
    fld = hypersurface.analyze(p)
    sum_form, div_form = minimality.el_residual(fld)
    assert fd.max_abs(np.subtract(*fd.crop(3, sum_form, 2.0 * div_form))) < 5e-3


def test_minimality_verdict_invariant_under_group(torus_patch, torus_field):
    from laguerre import group

    rng = np.random.default_rng(77)
    T = group.random_transform(rng, 3, factors=4, translation_scale=0.3, flow_scale=0.2)
    moved = hypersurface.transform_patch(T, torus_patch)
    fld2 = hypersurface.analyze(moved)
    rep1 = minimality.minimality_report(torus_field)
    rep2 = minimality.minimality_report(fld2)
    assert rep1.verdict == rep2.verdict == "non-minimal"
    s1, d1 = minimality.el_residual(torus_field)
    s2, d2 = minimality.el_residual(fld2)
    assert fd.max_abs(d1 - d2) < 1e-6


@pytest.mark.parametrize("native", ["catenoid_patch", "saddle_patch"])
def test_bridge_crosscheck_is_null_when_both_sides_read_zero(native, request):
    # On a minimal surface both sides of the bridge identity are below the
    # verdict threshold, so their quotient would be noise over noise.
    emb = spaceforms.embed_patch(request.getfixturevalue(native))
    rep = minimality.minimality_report(hypersurface.analyze(emb))
    assert rep.verdict == rep.lap_verdict == "minimal"
    assert rep.max_laplacian_r <= rep.threshold
    assert rep.max_el_scaled <= rep.threshold
    assert rep.crosscheck is None
    assert rep.to_json()["crosscheck_lap_r"] is None


# --- the sum form as div(div B) ----------------------------------------------

def nabla_nabla_B_sum_form(fld):
    """Reference sum form through the second covariant derivative of B:
    g^ca g^db nabla_d nabla_c B_ab - <L, B>, from the G x m^4 field
    nabla nabla B."""
    DDB = fd.cov_d(fld.DB, fld.Gamma, fld.patch.axes)
    DDB, ginv, LB = fd.crop(fld.patch.ngrid, DDB, fld.ginv, fld.LB)
    return np.einsum("ca...,db...,dcab...->...", ginv, ginv, DDB) - LB


def refined(grid, k):
    """The grid with k - 1 points added in every interval: its points k
    apart are the points of ``grid``."""
    periodic = grid.get("periodic", [])
    out = {"periodic": periodic}
    for name, (lo, hi, c) in ((name, val) for name, val in grid.items() if name != "periodic"):
        out[name] = [lo, hi, c * k if name in periodic else (c - 1) * k + 1]
    return out


def sum_forms_at(spec, k, points):
    """Both sum forms on the grid of ``spec`` refined by k, at the grid
    points ``points`` (one index array per axis) of the unrefined grid."""
    fld = hypersurface.analyze(patches.build_patch({**spec, "grid": refined(spec["grid"], k)}))
    forms = [minimality.el_residual(fld)[0], nabla_nabla_B_sum_form(fld)]
    return [f[np.ix_(*(k * ix - m for ix, m in zip(points, fd.margins(f, fld.patch.axes))))]
            for f in forms]


def test_sum_form_converges_with_the_nabla_nabla_B_form():
    # Two discretisations of B_ab,ab on the cubic graph (n = 3), where the
    # sum form is of order 450: they differ by ~8e-4 of it on a 21 x 21
    # grid, and both the difference and each form's change between
    # refinements shrink by ~16 per halving of the step (fourth order), at
    # the points of the 21 x 21 window.
    spec = {"builtin": "translational_graph", "params": {"quad": [1.0, 0.5], "cubic": [0.3, 0.2]},
            "grid": {"u": [-0.3, 0.3, 21], "v": [-0.3, 0.3, 21]}}
    window = [np.arange(6, 15)] * 2   # inside the sum form's margin 3r = 6
    forms = {k: sum_forms_at(spec, k, window) for k in (1, 2, 4)}
    scale = fd.max_abs(forms[4][1])
    gaps = [fd.max_abs(new - ref) for new, ref in forms.values()]
    assert gaps[0] < 2e-3 * scale
    assert gaps[0] > 8 * gaps[1] > 64 * gaps[2]
    for route in (0, 1):
        steps = [fd.max_abs(forms[a][route] - forms[b][route]) for a, b in ((1, 2), (2, 4))]
        assert steps[0] > 8 * steps[1]


@pytest.mark.parametrize("spec, rel", [
    ({"builtin": "torus"}, 1e-11),
    ({"builtin": "torus4"}, 1e-12),
    ({"builtin": "translational_graph", "params": {"quad": [1.0, 0.7, 0.4],
                                                   "cubic": [0.1, 0.2, -0.1]},
      "grid": dict.fromkeys("uvw", [-0.25, 0.25, 21])}, 1e-4),
])
def test_sum_form_matches_the_nabla_nabla_B_form(spec, rel):
    # On the tori the sum form is constant along the rotation and both
    # routes agree to rounding; on the 3-axis cubic graph (n = 4) to 8e-6.
    fld = hypersurface.analyze(patches.build_patch(spec))
    new, ref = fd.crop(fld.patch.ngrid, minimality.el_residual(fld)[0],
                       nabla_nabla_B_sum_form(fld))
    assert new.shape == ref.shape
    assert fd.max_abs(new - ref) <= rel * fd.max_abs(ref)
