import collections
import functools
import importlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import laguerre
from conftest import LAPACK, graph4_spec, grid_leading
from laguerre import cli, fd, group, hypersurface, lorentz, patches


def run(args):
    return cli.main(args)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def transform_file(tmp_path):
    """A script of one random group element of the torus's dimension."""
    T = group.random_transform(np.random.default_rng(9), 3, factors=4,
                               translation_scale=0.3, flow_scale=0.2)
    return write(tmp_path, "t.json", [{"kind": "matrix", "rows": T.matrix.tolist()}])


@pytest.fixture
def sphere_files(tmp_path):
    a = write(tmp_path, "a.json", {"kind": "sphere", "center": [0, 0, 0], "radius": 1})
    b = write(tmp_path, "b.json", {"kind": "sphere", "center": [3, 0, 0], "radius": -2})
    c = write(tmp_path, "c.json", {"kind": "sphere", "center": [0, 0, 0], "radius": 2})
    return a, b, c


@pytest.fixture
def torus_spec_file(tmp_path):
    return write(tmp_path, "torus.json", {
        "builtin": "torus", "params": {"R": 2, "a": 1},
        "grid": {"u": [-np.pi / 3, np.pi / 3, 65], "v": [0, 2 * np.pi, 64],
                 "periodic": ["v"]},
        "normal": "outward",
    })


def read_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_spheres_contact_tangent_pair(sphere_files, capsys):
    a, b, _ = sphere_files
    assert run(["spheres", "contact", "--a", a, "--b", b]) == 0
    out = read_out(capsys)
    assert out["contact"] is True
    assert out["F"] == pytest.approx(0.0)


def test_spheres_contact_concentric(sphere_files, capsys):
    a, _, c = sphere_files
    assert run(["spheres", "contact", "--a", a, "--b", c]) == 0
    out = read_out(capsys)
    assert out["contact"] is False
    assert out["F"] == pytest.approx(-1.0)


def test_spheres_identical_inputs(sphere_files, capsys):
    a, _, _ = sphere_files
    assert run(["spheres", "contact", "--a", a, "--b", a]) == 0
    out = read_out(capsys)
    assert out["contact"] is True and out["F"] == 0.0


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    a = write(tmp_path, "a.json", {"kind": "sphere", "center": [0, 0, 0], "radius": 1})
    assert run(["spheres", "contact", "--a", str(bad), "--b", a]) == 2
    assert run(["spheres", "contact", "--a", a, "--b",
                write(tmp_path, "c.json", {"kind": "blob"})]) == 2


def test_group_compose_flow_law(tmp_path, capsys):
    script = write(tmp_path, "t.json", [
        {"kind": "parabolic", "t": 1.0}, {"kind": "parabolic", "t": 2.0},
    ])
    assert run(["group", "compose", "--transform", script, "--n", "3"]) == 0
    out = read_out(capsys)
    expect = group.parabolic(3.0, 3).matrix
    assert np.abs(np.array(out["matrix"]) - expect).max() < 1e-12


def test_group_decompose_identity(tmp_path, capsys):
    script = write(tmp_path, "t.json", {
        "n": 3, "factors": [{"kind": "matrix", "rows": np.eye(6).tolist()}],
    })
    assert run(["group", "decompose", "--transform", script]) == 0
    out = read_out(capsys)
    assert out["t"] == 0.0 and out["s"] == 0.0 and out["epsilon"] == 1
    assert out["reconstruction_error"] == 0.0


def test_group_decompose_random_product(tmp_path, capsys):
    rng = np.random.default_rng(3)
    T = group.random_transform(rng, 3, factors=5)
    script = write(tmp_path, "t.json", [{"kind": "matrix", "rows": T.matrix.tolist()}])
    assert run(["group", "decompose", "--transform", script]) == 0
    out = read_out(capsys)
    assert out["reconstruction_error"] < 1e-10


@pytest.mark.parametrize("t", [7.0, 10.0, 20.0])
def test_group_decompose_large_boost_exits_0(t, tmp_path, capsys):
    script = write(tmp_path, "t.json", {"n": 3, "factors": [{"kind": "hyperbolic", "t": t}]})
    assert run(["group", "decompose", "--transform", script]) == 0
    out = read_out(capsys)
    assert out["t"] == pytest.approx(t, rel=1e-14)
    assert out["reconstruction_error"] <= 1e-14 * np.cosh(t)


def test_group_invalid_element_exits_3(tmp_path, capsys):
    script = write(tmp_path, "t.json", [
        {"kind": "matrix", "rows": np.diag([1.0, 1, 1, 1, 1, 2]).tolist()},
    ])
    assert run(["group", "decompose", "--transform", script]) == 3
    capsys.readouterr()


def test_transform_too_large_to_check_exits_3(torus_spec_file, tmp_path, capsys):
    # a translation of 1e80 puts ~1e160 in the matrix, whose square overflows
    script = write(tmp_path, "t.json", [
        {"kind": "isometry", "A": np.eye(3).tolist(), "a": [1e80, 0, 0]},
    ])
    assert run(["surface", "compare", "--spec", torus_spec_file,
                "--spec2", torus_spec_file, "--transform", script]) == 3
    assert "does not preserve the inner product" in capsys.readouterr().err


def test_transform_without_euclidean_image_exits_4(torus_spec_file, tmp_path, capsys):
    # a translation of 1e70 leaves rounding noise ~1e54 in the middle block of
    # the image hyperplane member, against its last entry 1
    script = write(tmp_path, "t.json", [
        {"kind": "isometry", "A": np.eye(3).tolist(), "a": [1e70, 0, 0]},
    ])
    assert run(["surface", "compare", "--spec", torus_spec_file,
                "--spec2", torus_spec_file, "--transform", script]) == 4
    assert "no Euclidean element at grid index (" in capsys.readouterr().err


def test_transformed_sampled_patch_keeps_its_screen(tmp_path, capsys):
    # The image of sampled data inherits its finite-difference contact error,
    # so it is screened at the tolerances of sampled data.
    grid = {"u": [-0.3, 0.3, 27], "v": [-0.3, 0.3, 27]}
    graph = patches.build_patch({"builtin": "translational_graph", "grid": grid,
                                 "params": {"quad": [1.0, 0.5], "cubic": [0.3, 0.2]}})
    samples = {"points": grid_leading(graph.x, 1).tolist(),
               "normals": grid_leading(graph.xi, 1).tolist()}
    spec = write(tmp_path, "s.json", {"samples": samples, "grid": grid})
    script = transform_file(tmp_path)
    assert run(["surface", "compare", "--spec", spec, "--spec2", spec,
                "--transform", script]) == 0
    assert read_out(capsys)["max_g_deviation"] < 1e-3


def test_surface_analyze(torus_spec_file, capsys, tmp_path):
    csv_path = str(tmp_path / "fields.csv")
    assert run(["surface", "analyze", "--spec", torus_spec_file, "--csv", csv_path]) == 0
    out = read_out(capsys)
    smax = out["s_eigenvalues"]["max"]
    assert smax[0] == pytest.approx(1 / np.sqrt(2), abs=1e-6)
    assert out["volume"] == pytest.approx(2 * np.pi * 4 * np.log(2 + np.sqrt(3)), rel=1e-4)
    header = open(csv_path).readline().strip().split(",")
    assert header[:2] == ["u", "v"] and "rho" in header


def test_surface_volume(torus_spec_file, capsys):
    assert run(["surface", "volume", "--spec", torus_spec_file]) == 0
    out = read_out(capsys)
    assert out["volume"] == pytest.approx(33.0988, abs=1e-3)
    assert out["forms_relative_gap"] < 1e-6


def test_surface_minimality(torus_spec_file, capsys):
    assert run(["surface", "minimality", "--spec", torus_spec_file]) == 0
    out = read_out(capsys)
    assert out["verdict"] == "non-minimal" and out["consistent"]


def test_surface_embed_catenoid(tmp_path, capsys):
    spec = write(tmp_path, "cat.json", {"space": "r31", "builtin": "maximal_catenoid_r31"})
    assert run(["surface", "embed", "--spec", spec]) == 0
    out = read_out(capsys)
    assert out["minimality"]["verdict"] == "minimal"
    assert out["transfer"]["Y_transfer"] < 1e-6


def test_surface_compare_with_transform(torus_spec_file, tmp_path, capsys):
    rng = np.random.default_rng(9)
    T = group.random_transform(rng, 3, factors=4, translation_scale=0.3, flow_scale=0.2)
    script = write(tmp_path, "t.json", [{"kind": "matrix", "rows": T.matrix.tolist()}])
    assert run(["surface", "compare", "--spec", torus_spec_file,
                "--spec2", torus_spec_file, "--transform", script]) == 0
    out = read_out(capsys)
    assert out["max_g_deviation"] < 1e-6
    assert out["max_s_eig_deviation"] < 1e-6


def test_surface_compare_grid_refine_refines_both_specs(tmp_path, capsys):
    spec = write(tmp_path, "t.json", {
        "builtin": "torus", "params": {"R": 2, "a": 1},
        "grid": {"u": [-np.pi / 3, np.pi / 3, 33], "v": [0, 2 * np.pi, 32],
                 "periodic": ["v"]},
    })
    assert run(["surface", "compare", "--spec", spec, "--spec2", spec,
                "--grid-refine", "2"]) == 0
    out = read_out(capsys)
    assert out["max_g_deviation"] == 0.0


def test_compare_builds_one_patch_for_equal_specs(torus_spec_file, tmp_path, monkeypatch,
                                                  capsys):
    # A second file of equal content reuses the first patch; a spec that
    # differs only in leaving a default out builds its own, with
    # byte-identical output.
    script = transform_file(tmp_path)
    spec = json.loads(Path(torus_spec_file).read_text())
    copy = write(tmp_path, "copy.json", spec)
    implicit = write(tmp_path, "implicit.json", {k: v for k, v in spec.items() if k != "normal"})
    builds = counted(monkeypatch, patches, "build_patch")
    outputs = []
    for spec2 in (copy, implicit):
        builds.clear()
        assert run(["surface", "compare", "--spec", torus_spec_file, "--spec2", spec2,
                    "--transform", script]) == 0
        outputs.append((len(builds), capsys.readouterr().out))
    assert [count for count, _ in outputs] == [1, 2]
    assert outputs[0][1] == outputs[1][1]


def test_compare_builds_its_spec_before_reading_spec2(tmp_path, capsys):
    sphere = write(tmp_path, "sphere.json", {"builtin": "sphere"})
    assert run(["surface", "compare", "--spec", sphere,
                "--spec2", str(tmp_path / "missing.json")]) == 4
    assert "umbilic" in capsys.readouterr().err


def test_interior_margin_matches_nan_layout(torus_spec_file, torus_field, capsys):
    assert run(["surface", "analyze", "--spec", torus_spec_file]) == 0
    out = read_out(capsys)
    # g is built from first differences of Y: its window lacks the first and
    # last two u-rows of the 4th-order stencil and keeps all of periodic v.
    assert torus_field.g.shape[2:] == (65 - 4, 64)
    margins = fd.margins(torus_field.g, torus_field.patch.axes)
    assert out["interior_margin"] == dict(zip("uv", margins))
    assert out["interior_margin"] == {"u": 2, "v": 0}


def test_fd_order_sets_interior_margin(torus_spec_file, capsys):
    # The 2nd-order stencil has radius 1, so g loses one u-row per side.
    assert run(["surface", "analyze", "--spec", torus_spec_file, "--fd-order", "2"]) == 0
    assert read_out(capsys)["interior_margin"] == {"u": 1, "v": 0}


def test_interior_margin_of_a_sampled_patch_counts_its_nan_layers(tmp_path, capsys):
    # Sampled jets exist only where their stencils have samples: 2 u-rows
    # inside each end for dx and 4 for d2x, the window the patch is built
    # on.  g's window drops 2 more, so g starts at u-row 6 of the spec's grid.
    torus = patches.build_patch({"builtin": "torus"})
    spec = write(tmp_path, "sampled.json", {
        "samples": {"points": grid_leading(torus.x, 1).tolist(),
                    "normals": grid_leading(torus.xi, 1).tolist()},
        "grid": {"u": [-np.pi / 3, np.pi / 3, 65], "v": [0, 2 * np.pi, 64], "periodic": ["v"]}})
    assert run(["surface", "analyze", "--spec", spec]) == 0
    assert read_out(capsys)["interior_margin"] == {"u": 6, "v": 0}


def sampled_spec(tmp_path, nu, nv, builtin="torus"):
    """Spec file of a builtin sampled on u in [-pi/3, pi/3] (nu points) and
    nv periodic v points, and the spec file of the builtin on that grid."""
    grid = {"u": [-np.pi / 3, np.pi / 3, nu], "v": [0, 2 * np.pi, nv], "periodic": ["v"]}
    p = patches.build_patch({"builtin": builtin, "grid": grid})
    return (write(tmp_path, "sampled.json", {"samples": {"points": grid_leading(p.x, 1).tolist(),
                                                         "normals": grid_leading(p.xi, 1).tolist()},
                                             "grid": grid}),
            write(tmp_path, "builtin.json", {"builtin": builtin, "grid": grid}))


def test_sampled_volume_is_one_integral_in_both_commands(tmp_path, capsys):
    # The volume of a sampled patch is the integral over its window, in
    # volume and in analyze alike.
    spec, _ = sampled_spec(tmp_path, 33, 32)
    assert run(["surface", "volume", "--spec", spec]) == 0
    volume = read_out(capsys)
    assert run(["surface", "analyze", "--spec", spec]) == 0
    analysis = read_out(capsys)
    assert volume["volume"] == analysis["volume"] > 0.0
    assert volume["volume_curvature_form"] == analysis["volume_curvature_form"]


# Fewest samples per bounded axis, by stencil order: the window of the jets
# (2r points inside each end) must hold the 4 cascade levels of analyze
# (19 points at order 4, 11 at order 2), and for volume the 6 samples of an
# axis.
@pytest.mark.parametrize("command", ["analyze", "minimality"])
@pytest.mark.parametrize("order, nu, code", [
    ("4", 19, 4), ("4", 22, 4), ("4", 25, 4), ("4", 26, 4), ("4", 27, 0),
    ("2", 14, 4), ("2", 15, 0),
])
def test_small_sampled_grids_exit_4_naming_the_axis(command, order, nu, code, tmp_path, capsys):
    spec, _ = sampled_spec(tmp_path, nu, 32)
    assert run(["surface", command, "--spec", spec, "--fd-order", order]) == code
    err = capsys.readouterr().err
    assert ("axis 'u' with" in err) == (code == 4)


def test_small_sampled_grid_message_names_the_spec_count(tmp_path, capsys):
    # The jets' window of the 19 x 32 sampled torus keeps 11 of its 19 u-rows.
    spec, _ = sampled_spec(tmp_path, 19, 32)
    assert run(["surface", "analyze", "--spec", spec]) == 4
    assert ("axis 'u' with 19 points (11 after the jets' cut of 4 per side) cannot support 4 "
            "cascaded derivative levels" in capsys.readouterr().err)


@pytest.mark.parametrize("order, nu, code", [("4", 13, 2), ("4", 14, 0), ("2", 9, 2), ("2", 10, 0)])
def test_sampled_volume_needs_a_window_of_6_samples(order, nu, code, tmp_path, capsys):
    spec, _ = sampled_spec(tmp_path, nu, 32)
    assert run(["surface", "volume", "--spec", spec, "--fd-order", order]) == code
    err = capsys.readouterr().err
    assert ("grid too small for finite-difference jets" in err) == (code == 2)


def test_five_samples_are_too_few_for_jets(tmp_path, capsys):
    # Reported as too small for the jets, not as a grid below 6 samples.
    ones = np.ones((5, 32, 3)).tolist()
    spec = write(tmp_path, "s.json", {"grid": {"u": [0, 1, 5], "v": [0, 1, 32], "periodic": ["v"]},
                                      "samples": {"points": ones, "normals": ones}})
    assert run(["surface", "volume", "--spec", spec]) == 2
    assert "grid too small for finite-difference jets" in capsys.readouterr().err


def test_compare_builtin_against_its_samples(tmp_path, capsys):
    # Both patches sit on the same spec grid; they are compared over the
    # window of the sampled one.
    sampled, builtin = sampled_spec(tmp_path, 65, 64)
    assert run(["surface", "compare", "--spec", builtin, "--spec2", sampled]) == 0
    out = read_out(capsys)
    assert out["max_g_deviation"] < 1e-9
    assert out["max_s_eig_deviation"] < 1e-5


def test_csv_of_a_sampled_patch_has_no_nan(tmp_path, capsys):
    # One row per point of the patch's window: 57 u-rows of 64.
    spec, _ = sampled_spec(tmp_path, 65, 64)
    csv_path = tmp_path / "fields.csv"
    assert run(["surface", "analyze", "--spec", spec, "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    rows = csv_path.read_text().lower().splitlines()
    assert len(rows) == 1 + 57 * 64
    assert not any("nan" in row for row in rows)


SURFACE_FLAGS = [["--strict"], ["--fd-order", "2"], ["--grid-refine", "2"]]
UNREAD_FLAGS = (
    [["spheres", "contact", "--a", "a.json", "--b", "b.json", *flag] for flag in SURFACE_FLAGS]
    + [["group", sub, "--transform", "t.json", *flag] for sub in ("compose", "decompose")
       for flag in SURFACE_FLAGS + [["--tol", "1e-3"]]]
    + [["surface", "minimality", "--spec", "s.json", "--tol", "1e-3"]]
)


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
def test_commands_reject_flags_they_ignore(argv, capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("defect, code", [(None, 0), ("shift", 4), ("scale", 4)])
def test_sampled_r30_patch_stays_in_the_degenerate_hyperplane(defect, code, tmp_path, capsys):
    grid = {"u": [0.3, 1.2, 27], "v": [0.3, 1.2, 27]}
    saddle = patches.build_patch({"builtin": "saddle_r30", "grid": grid})
    x, xi = grid_leading(saddle.x, 1).copy(), grid_leading(saddle.xi, 1).copy()
    if defect == "shift":
        x[..., 0] += 0.25      # <x, nu> = 0.25
    elif defect == "scale":
        xi *= 2.0              # <xi, nu> = 2, still null
    spec = write(tmp_path, "s.json", {"samples": {"points": x.tolist(), "normals": xi.tolist()},
                                      "grid": grid, "space": "r30"})
    assert run(["surface", "embed", "--spec", spec]) == code
    assert ("at grid index (" in capsys.readouterr().err) == (defect is not None)


@pytest.mark.parametrize("command", ["analyze", "minimality", "volume"])
def test_sampled_nan_exits_2_naming_the_index(command, tmp_path, capsys):
    grid = {"u": [-1.0, 1.0, 25], "v": [0.0, 2 * np.pi, 24], "periodic": ["v"]}
    torus = patches.build_patch({"builtin": "torus", "grid": grid})
    points = grid_leading(torus.x, 1).tolist()
    points[10][5][0] = float("nan")
    spec = write(tmp_path, "s.json", {"samples": {"points": points,
                                                  "normals": grid_leading(torus.xi, 1).tolist()},
                                      "grid": grid})
    assert run(["surface", command, "--spec", spec]) == 2
    assert "(10, 5)" in capsys.readouterr().err


TORUS_GRID = {"u": [-1.0, 1.0, 33], "v": [0.0, 6.283, 32], "periodic": ["v"]}
MALFORMED_SPECS = {
    "grid-not-object": {"builtin": "torus", "grid": [[-1.0, 1.0, 33], [0.0, 6.283, 32]]},
    "periodic-not-list": {"builtin": "torus", "grid": {**TORUS_GRID, "periodic": 5}},
    "axis-not-numeric": {"builtin": "torus", "grid": {**TORUS_GRID, "u": [-1.0, "one", 33]}},
    "axis-short": {"builtin": "torus", "grid": {**TORUS_GRID, "u": [-1.0, 1.0]}},
    "axis-not-list": {"builtin": "torus", "grid": {**TORUS_GRID, "u": 33}},
    "count-not-integer": {"builtin": "torus", "grid": {**TORUS_GRID, "u": [-1.0, 1.0, 32.5]}},
    "count-not-number": {"builtin": "torus", "grid": {**TORUS_GRID, "u": [-1.0, 1.0, "many"]}},
    "params-not-object": {"builtin": "torus", "params": [2.0, 1.0]},
    "param-not-numeric": {"builtin": "torus", "params": {"R": "two"}},
    "param-list-for-number": {"builtin": "torus", "params": {"R": [2.0, 1.0]}},
    "spec-not-object": [{"builtin": "torus"}],
    "samples-unknown-space": {"space": "r7", "grid": {"u": [0, 1, 8], "v": [0, 1, 8]},
                              "samples": {"points": np.ones((8, 8, 3)).tolist(),
                                          "normals": np.ones((8, 8, 3)).tolist()}},
}


@pytest.mark.parametrize("refine", [[], ["--grid-refine", "2"]], ids=["", "refine2"])
@pytest.mark.parametrize("name", MALFORMED_SPECS)
def test_malformed_spec_exits_2(name, refine, tmp_path, capsys):
    spec = write(tmp_path, "s.json", MALFORMED_SPECS[name])
    assert run(["surface", "analyze", "--spec", spec, *refine]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# Python's json reads 1e400 as inf and NaN as nan, and the string "nan"
# converts to one: each is rejected before the build, exit 2.
NONFINITE_PARAMS = {
    "overflow": '{"builtin": "torus", "params": {"R": 1e400}}',
    "nan": '{"builtin": "torus", "params": {"a": NaN}}',
    "nan-string": '{"builtin": "torus", "params": {"a": "nan"}}',
    "nan-in-list": '{"builtin": "translational_graph", "params": {"cubic": [0.1, NaN]}}',
}


@pytest.mark.parametrize("command", ["analyze", "volume"])
@pytest.mark.parametrize("name", NONFINITE_PARAMS)
def test_nonfinite_params_exit_2(name, command, tmp_path, capsys):
    spec = tmp_path / "s.json"
    spec.write_text(NONFINITE_PARAMS[name])
    assert run(["surface", command, "--spec", str(spec)]) == 2
    assert "must be a finite number" in capsys.readouterr().err


def test_graph_without_quad_on_4_axes_exits_2_naming_it(tmp_path, capsys):
    # The default quad coefficients are for 2 or 3 axes; the user gave no
    # params, so the message names the missing one, not a size mismatch.
    axis = [-0.3, 0.3, 13]
    spec = write(tmp_path, "s.json", {"builtin": "translational_graph",
                                      "grid": {"u": axis, "v": axis, "w": axis, "t": axis}})
    assert run(["surface", "analyze", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "'quad'" in err and "must match" not in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap tuning")
def test_main_keeps_freed_fields_mapped(tmp_path, sphere_files):
    # After a command, ten 3 MiB fields freed together are allocated again
    # without faulting their 7,680 pages in afresh.
    import resource
    assert run(["spheres", "contact", "--a", sphere_files[0], "--b", sphere_files[1],
                "--out", str(tmp_path / "o.json")]) == 0
    fault = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fields = [np.ones(3 << 17) for _ in range(10)]
    del fields
    before = fault()
    fields = [np.ones(3 << 17) for _ in range(10)]
    assert fault() - before < 768


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap tuning")
def test_main_sets_the_heap_options_once_per_process(sphere_files, monkeypatch, capsys):
    # The glibc settings hold for the whole process: a second request does
    # not look mallopt up again.
    import ctypes
    lookups = counted(monkeypatch, ctypes, "CDLL")
    cli._keep_freed_heap.cache_clear()
    for _ in range(2):
        assert run(["spheres", "contact", "--a", sphere_files[0], "--b", sphere_files[1]]) == 0
    capsys.readouterr()
    assert lookups == ["CDLL"]


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(laguerre.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import laguerre.cli, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_degenerate_surface_exits_4(tmp_path, capsys):
    spec = write(tmp_path, "s.json", {"builtin": "sphere"})
    assert run(["surface", "analyze", "--spec", spec]) == 4
    capsys.readouterr()


def test_strict_mode_exits_5(torus_spec_file, capsys):
    assert run(["surface", "analyze", "--spec", torus_spec_file,
                "--strict", "--tol", "1e-12"]) == 5
    capsys.readouterr()


@pytest.mark.parametrize("argv, tol", [
    (["spheres", "contact", "--a", "a.json", "--b", "b.json"], 1e-9),
    (["surface", "analyze", "--spec", "s.json"], 1e-3),
    (["surface", "volume", "--spec", "s.json"], 1e-6),
    (["surface", "compare", "--spec", "s.json", "--spec2", "s.json"], 1e-6),
    (["surface", "embed", "--spec", "s.json"], 1e-6),
])
def test_tol_default_per_command(argv, tol):
    assert cli.build_parser().parse_args(argv).tol == tol


def test_deterministic_output(torus_spec_file, capsys, tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert run(["surface", "analyze", "--spec", torus_spec_file, "--out", out1,
                "--seed", "7"]) == 0
    assert run(["surface", "analyze", "--spec", torus_spec_file, "--out", out2,
                "--seed", "7"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_grid_refine_flag(tmp_path, capsys):
    spec = write(tmp_path, "t.json", {
        "builtin": "torus", "params": {"R": 2, "a": 1},
        "grid": {"u": [-np.pi / 4, np.pi / 4, 33], "v": [0, 2 * np.pi, 32],
                 "periodic": ["v"]},
    })
    assert run(["surface", "volume", "--spec", spec, "--grid-refine", "2"]) == 0
    read_out(capsys)
    # refining also works when the spec relies on the builtin default grid
    bare = write(tmp_path, "bare.json", {"builtin": "torus", "params": {"R": 2, "a": 1}})
    assert run(["surface", "volume", "--spec", bare, "--grid-refine", "2"]) == 0
    out = read_out(capsys)
    assert out["volume"] == pytest.approx(33.0988, abs=1e-3)


def test_emit_writes_standard_json(capsys):
    cli._emit({"x": float("nan"), "a": np.array([1.0, np.inf]), "v": np.float64(2.5)}, None)
    text = capsys.readouterr().out
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text) == {"a": [1.0, None], "v": 2.5, "x": None}


def counted(monkeypatch, module, name, calls=None):
    """Replace module.name by a wrapper that records each call in the returned
    list (``calls``, when given)."""
    calls = [] if calls is None else calls
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# Calls a command makes to the kernels that form its fields, pinned, so that
# a field formed twice in one command -- read again after it was dropped
# (``InvariantField.keep_only``), or never cached -- shows as one more call.
# The I Gram and the cone lift are formed once per patch that needs them,
# and the curvature tensor and the B spectrum only for the commands that
# report them.  grid_eigvalsh also runs once per shape_data (principal
# curvatures); the S spectrum is read off the curvature radii, with no
# eigensolver.  The inverse Cholesky factor is formed once per patch (the
# screen) and once per analyzed field that reads its frame.
# The stencil count (fd.gradient, including the calls inside the fd kernels)
# is the one the benchmark tracer reports per request; the Laplacians of Y
# and eta take no gradient of their own but reuse dY and deta, the
# curvature takes single-axis derivatives of the Gamma rows its pairs need
# instead of a gradient of Gamma, and the criticality sum form is one more
# Laplacian, of div B.  cov_d counts the calls through its rank aliases,
# as the tracer does: nabla L, nabla B and nabla C.
LAZY = {"first_fundamental": patches, "laguerre_lift": patches,
        "riemann_tensor": fd, "grid_eigvalsh": fd, "selfadjoint_eigvals": fd,
        "christoffel": fd, "laplace_beltrami": fd, "gradient": fd,
        "cov_d": fd, "inverse_cholesky": fd, "inner": lorentz, "shape_data": patches}
LAZY_CALLS = {
    "analyze": (1, 1, 1, 2, 0, 1, 1, 7, 3, 2, 10, 1),
    "minimality": (1, 1, 0, 1, 0, 1, 4, 7, 2, 2, 5, 1),
    "volume": (1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1),
    "embed": (2, 2, 1, 3, 0, 1, 4, 8, 3, 3, 18, 2),
    "compare": (2, 2, 0, 4, 0, 0, 0, 4, 0, 4, 0, 2),
}
COV_D_ALIASES = ("cov_d_covector", "cov_d_tensor2", "cov_d_tensor3")
# Formations of the links of the patch's chain S -> dxi -> III, which a
# link drops once the next is formed: at most one of each per patch, so a
# reader that slips in after a drop shows as a second formation.  A builtin
# forms S and its dxi; a patch read off a pencil (compare's image, embed's
# embedding) holds its dxi, whose read forms no S.  analyze and minimality
# read III for the diagnostic and the third-form Laplacian, embed for the
# transfer check on both patches, compare only the source's dxi for the
# image's pencil jets, and volume none of the chain.
CHAIN_FORMED = {
    "analyze": {"S": 1, "dxi": 1, "third_form": 1},
    "minimality": {"S": 1, "dxi": 1, "third_form": 1},
    "volume": {},
    "embed": {"S": 1, "dxi": 2, "third_form": 2},
    "compare": {"S": 1, "dxi": 1},
}


def count_chain(monkeypatch):
    """Record each formation of a chain link as (link, patch id)."""
    formed = []
    for name in patches.CHAIN:
        form = vars(patches.SurfacePatch)[name].func

        def counting(patch, form=form, name=name):
            formed.append((name, id(patch)))
            return form(patch)

        link = functools.cached_property(counting)
        link.__set_name__(patches.SurfacePatch, name)
        monkeypatch.setattr(patches.SurfacePatch, name, link)
    return formed


def count_lazy(monkeypatch):
    calls = {name: counted(monkeypatch, module, name) for name, module in LAZY.items()}
    for alias in COV_D_ALIASES:
        counted(monkeypatch, fd, alias, calls["cov_d"])
    return calls


def lazy_counts(calls, command):
    """(got, expected) call counts, by function name."""
    return ({name: len(c) for name, c in calls.items()},
            dict(zip(LAZY, LAZY_CALLS[command])))


@pytest.mark.parametrize("command, shape_calls, cov_d_calls", [
    ("analyze", 1, 1), ("minimality", 1, 1), ("volume", 1, 0), ("embed", 2, 1),
    ("compare", 2, 0),
])
def test_derived_fields_computed_once(command, shape_calls, cov_d_calls, torus_spec_file,
                                      tmp_path, monkeypatch, capsys):
    # One shape_data per patch (compare: one built for both specs, one
    # transformed; embed: native and image) and one nabla C per analyzed
    # patch, however many consumers read them.
    shapes = counted(monkeypatch, patches, "shape_data")
    cov_ds = counted(monkeypatch, fd, "cov_d_covector")
    lazy = count_lazy(monkeypatch)
    chain = count_chain(monkeypatch)
    argv = ["surface", command, "--spec", torus_spec_file]
    if command == "embed":
        argv[-1] = write(tmp_path, "cat.json", {"space": "r31", "builtin": "maximal_catenoid_r31"})
    if command == "compare":
        script = transform_file(tmp_path)
        argv += ["--spec2", torus_spec_file, "--transform", script]
    assert run(argv) == 0
    capsys.readouterr()
    assert (len(shapes), len(cov_ds)) == (shape_calls, cov_d_calls)
    got, expected = lazy_counts(lazy, command)
    assert got == expected
    assert max(collections.Counter(chain).values(), default=1) == 1, chain
    assert collections.Counter(name for name, _ in chain) == CHAIN_FORMED[command]


# tracemalloc peaks of a command on its default grid, MiB, about 1.2 times
# what it reads when every field goes after its last reader, inside a stage
# as well as between stages.  With every field held to the end of the
# command (and the native patch of embed, the first side of compare and a
# builtin's jets tables through its screen) they read 8.2, 42.0, 6.8 and
# 16.5; released only between stages, 5.0, 30.8, 5.2, 11.6 and 28.8
# (minimality); they now read 4.3, 22.2, 4.5, 11.6 and 23.9.
PEAK_CASES = {
    "embed": ({"space": "r31", "builtin": "maximal_catenoid_r31"}, 5.2),
    "analyze": ({"builtin": "torus4"}, 26.6),
    "compare": ({"builtin": "torus"}, 5.4),
    "volume": ({"builtin": "torus4"}, 14.0),
    "minimality": ({"builtin": "torus4"}, 28.7),
}


@pytest.mark.parametrize("command", sorted(PEAK_CASES))
def test_a_command_peaks_at_its_largest_stage(command, tmp_path):
    spec, bound = PEAK_CASES[command]
    path = write(tmp_path, "spec.json", spec)
    argv = ["surface", command, "--spec", path, "--out", str(tmp_path / "o.json")]
    if command == "compare":
        script = transform_file(tmp_path)
        argv += ["--spec2", path, "--transform", script]
    # A first run takes the one-time allocations (lazy imports, caches), so
    # the traced run reads the command's own peak whichever test ran before.
    assert run(argv) == 0
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("command, held", [("analyze", []), ("embed", ["third_form"])])
def test_the_chain_goes_before_the_structure_identities(command, held, torus_spec_file,
                                                        tmp_path, monkeypatch, capsys):
    # The construction diagnostic reads the chain S -> dxi -> III last in
    # analyze, so the structure identities run without any of it;
    # embed keeps III for the third-form Laplacian of its minimality stage.
    seen = []
    identities = hypersurface._structure_identities

    def spy(fld, *args):
        seen.append(sorted(set(patches.CHAIN) & set(vars(fld.patch))))
        return identities(fld, *args)

    monkeypatch.setattr(hypersurface, "_structure_identities", spy)
    spec = torus_spec_file
    if command == "embed":
        spec = write(tmp_path, "cat.json", {"space": "r31", "builtin": "maximal_catenoid_r31"})
    assert run(["surface", command, "--spec", spec]) == 0
    capsys.readouterr()
    assert seen == [held]


def test_compare_reduces_its_first_side_before_it_analyzes_the_second(
        torus_spec_file, tmp_path, monkeypatch, capsys):
    # When the second side is analyzed the first holds only the three
    # fields compare_invariants reads.
    fields, held = [], []
    analyze = hypersurface.analyze

    def spy(patch):
        held.extend(sorted(set(vars(f)) - {"patch"}) for f in fields)
        fields.append(analyze(patch))
        return fields[-1]

    monkeypatch.setattr(hypersurface, "analyze", spy)
    script = transform_file(tmp_path)
    assert run(["surface", "compare", "--spec", torus_spec_file, "--spec2", torus_spec_file,
                "--transform", script]) == 0
    capsys.readouterr()
    assert held == [sorted(hypersurface.COMPARED_FIELDS)]


@pytest.mark.parametrize("command", ["analyze", "minimality", "volume"])
def test_torus4_commands_compute_only_what_they_read(command, tmp_path, monkeypatch, capsys):
    # On n = 4 the curvature tensor and the spectra are the largest fields
    # nothing but some commands read.
    lazy = count_lazy(monkeypatch)
    spec = write(tmp_path, "torus4.json", {"builtin": "torus4"})
    assert run(["surface", command, "--spec", spec]) == 0
    capsys.readouterr()
    got, expected = lazy_counts(lazy, command)
    if command == "minimality":
        # The third-form Laplacian, and its gradient, are for surfaces only.
        expected["laplace_beltrami"] -= 1
        expected["gradient"] -= 1
    assert got == expected


OFF_LAPACK = {"torus4": {"builtin": "torus4"}, "graph4_9": graph4_spec(9),
              "graph4_19": graph4_spec(19)}


@pytest.mark.parametrize(("command", "surface"), [
    *itertools.product(["analyze", "minimality", "volume"], ["torus", "torus4"]),
    ("volume", "graph4_9"), ("analyze", "graph4_19")])
def test_small_blocks_stay_off_lapack(surface, command, torus_spec_file, tmp_path,
                                      monkeypatch, capsys):
    # Inverses, determinants, Cholesky factors and spectra (the principal
    # curvatures, B_eigs and S_eigs) of the 2x2, 3x3 and 4x4 blocks are
    # computed elementwise over the grid: no command makes a batched LAPACK
    # call.
    calls = {name: counted(monkeypatch, np.linalg, name) for name in LAPACK}
    spec = torus_spec_file
    if surface in OFF_LAPACK:
        spec = write(tmp_path, f"{surface}.json", OFF_LAPACK[surface])
    assert run(["surface", command, "--spec", spec]) == 0
    capsys.readouterr()
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(LAPACK, 0)


def test_tracer_layers_resolve():
    # The benchmark tracer wraps these names from outside the package; a
    # rename would silently drop the layer from its per-layer metrics.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.LAYERS.items() for name in names
               if not callable(getattr(importlib.import_module(f"laguerre.{module}"), name, None))]
    assert missing == []
    # Spans the tracer folds, counts per patch or reads as residual passes
    # exist only if their function is wrapped.
    wrapped = {f"{module}.{name}" for module, names in tracer.LAYERS.items() for name in names}
    named = set(tracer.STEMS) | set(tracer.PATCH_MAKERS) | set(tracer.RESIDUAL_PASSES)
    assert named - wrapped == set()
