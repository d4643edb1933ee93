import numpy as np
import pytest

from laguerre import fd, hypersurface, minimality, patches, spaceforms
from laguerre.errors import UsageError


def test_torus_is_not_minimal(torus_report):
    assert torus_report.verdict == "non-minimal"
    assert torus_report.lap_verdict == "non-minimal"
    assert torus_report.consistent


def test_torus_el_residual_closed_form(torus_field):
    # for the torus both criticality forms are constant: the divergence form
    # equals sqrt(2)/R^2 in magnitude everywhere
    sum_form, div_form = minimality.el_residual(torus_field)
    expect = np.sqrt(2) / 4.0
    assert abs(np.nanmedian(np.abs(div_form)) - expect) < 1e-5
    assert abs(np.nanmedian(np.abs(sum_form)) - expect) < 1e-5
    assert fd.nanmax_abs(sum_form - div_form) < 1e-3  # n = 3: the forms coincide


def test_torus_laplacian_r_closed_form(torus_patch, torus_shape):
    lap = minimality.third_form_laplacian_r(torus_patch, torus_shape.r)
    assert lap[32, 0] == pytest.approx(-1.0, abs=1e-4)
    U = torus_patch.axes.meshgrid()[0]
    closed = -np.cos(U) ** -3  # -(R/2) sec^3 u with R = 2
    mask = np.isfinite(lap)
    assert fd.nanmax_abs(lap - np.where(mask, closed, np.nan)) < 1e-3
    # the max over the valid region matches the closed form at its edge
    edge = np.nanmax(np.abs(np.where(mask, closed, np.nan)))
    assert fd.nanmax_abs(lap) == pytest.approx(edge, rel=1e-3)


def test_laplacian_requires_surface_case():
    p = patches.build_patch({"builtin": "torus4"})
    with pytest.raises(UsageError):
        minimality.third_form_laplacian_r(p, p.shape.r)


def test_laplacian_annihilates_constants(torus_patch, torus_shape):
    lap1 = minimality.third_form_laplacian_r(torus_patch, torus_shape.r)
    lap2 = minimality.third_form_laplacian_r(torus_patch, torus_shape.r + 17.5)
    assert fd.nanmax_abs(lap1 - lap2) < 1e-10


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
    assert fd.nanmax_abs(sum_form - 2.0 * div_form) < 5e-3


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
    assert fd.nanmax_abs(d1 - d2) < 1e-6


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
