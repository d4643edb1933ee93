import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import laguerre
from laguerre import cli, fd, group, patches


def run(args):
    return cli.main(args)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


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


def test_group_invalid_element_exits_3(tmp_path, capsys):
    script = write(tmp_path, "t.json", [
        {"kind": "matrix", "rows": np.diag([1.0, 1, 1, 1, 1, 2]).tolist()},
    ])
    assert run(["group", "decompose", "--transform", script]) == 3
    capsys.readouterr()


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


def test_interior_margin_matches_nan_layout(torus_spec_file, torus_field, capsys):
    assert run(["surface", "analyze", "--spec", torus_spec_file]) == 0
    out = read_out(capsys)
    # g is built from first differences of Y: NaN on the first and last two
    # u-rows of the 4th-order stencil, finite everywhere along periodic v.
    finite = np.isfinite(torus_field.g).all(axis=(-2, -1))
    u_rows = np.nonzero(finite.any(axis=1))[0]
    assert out["interior_margin"] == {"u": int(u_rows[0]), "v": 0}
    assert out["interior_margin"]["u"] == 2


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


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call in the returned list."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# Calls a command makes to functions whose results are read on demand: the
# I Gram and the cone lift once per patch that needs them, the curvature
# tensor and the spectra only for the commands that report them, and the
# second normal jets only where a group action or an embedding reads them.
LAZY = {"first_fundamental": patches, "laguerre_lift": patches, "_d2xi_from_shape": patches,
        "riemann_tensor": fd, "grid_eigvalsh": fd, "selfadjoint_eigvals": fd}
LAZY_CALLS = {
    "analyze": (1, 1, 0, 1, 2, 1),
    "minimality": (1, 1, 0, 0, 0, 0),
    "volume": (1, 0, 0, 0, 0, 0),
    "embed": (2, 2, 1, 1, 2, 1),
    "compare": (3, 2, 1, 0, 4, 2),
}


def count_lazy(monkeypatch):
    return {name: counted(monkeypatch, module, name) for name, module in LAZY.items()}


def lazy_counts(calls, command):
    """(got, expected) call counts, by function name."""
    return ({name: len(c) for name, c in calls.items()},
            dict(zip(LAZY, LAZY_CALLS[command])))


@pytest.mark.parametrize("command, shape_calls, cov_d_calls", [
    ("analyze", 1, 1), ("minimality", 1, 1), ("volume", 1, 0), ("embed", 2, 1),
    ("compare", 3, 0),
])
def test_derived_fields_computed_once(command, shape_calls, cov_d_calls, torus_spec_file,
                                      tmp_path, monkeypatch, capsys):
    # One shape_data per patch (compare: two built, one transformed; embed:
    # native and image) and one nabla C per analyzed patch, however many
    # consumers read them.
    shapes = counted(monkeypatch, patches, "shape_data")
    cov_ds = counted(monkeypatch, fd, "cov_d_covector")
    lazy = count_lazy(monkeypatch)
    argv = ["surface", command, "--spec", torus_spec_file]
    if command == "embed":
        argv[-1] = write(tmp_path, "cat.json", {"space": "r31", "builtin": "maximal_catenoid_r31"})
    if command == "compare":
        T = group.random_transform(np.random.default_rng(9), 3, factors=4,
                                   translation_scale=0.3, flow_scale=0.2)
        script = write(tmp_path, "t.json", [{"kind": "matrix", "rows": T.matrix.tolist()}])
        argv += ["--spec2", torus_spec_file, "--transform", script]
    assert run(argv) == 0
    capsys.readouterr()
    assert (len(shapes), len(cov_ds)) == (shape_calls, cov_d_calls)
    got, expected = lazy_counts(lazy, command)
    assert got == expected


@pytest.mark.parametrize("command", ["analyze", "minimality", "volume"])
def test_torus4_commands_compute_only_what_they_read(command, tmp_path, monkeypatch, capsys):
    # On n = 4 the second normal jets, the curvature tensor and the spectra
    # are the largest fields nothing but some commands read.
    lazy = count_lazy(monkeypatch)
    spec = write(tmp_path, "torus4.json", {"builtin": "torus4"})
    assert run(["surface", command, "--spec", spec]) == 0
    capsys.readouterr()
    got, expected = lazy_counts(lazy, command)
    assert got == expected


LAPACK = ("inv", "solve", "det", "cholesky", "eigvalsh", "eigh")


@pytest.mark.parametrize("surface", ["torus", "torus4"])
@pytest.mark.parametrize("command, eigh_calls, eigvalsh_calls", [
    ("analyze", 1, 2), ("minimality", 1, 0), ("volume", 1, 0),
])
def test_small_blocks_stay_off_lapack(surface, command, eigh_calls, eigvalsh_calls,
                                      torus_spec_file, tmp_path, monkeypatch, capsys):
    # Inverses, determinants and Cholesky factors of the 2x2/3x3 blocks are
    # closed forms; only the reported spectra reach LAPACK: the principal
    # curvatures (one eigh per patch) and B_eigs/S_eigs (per analysis that
    # reports them; minimality reads neither).
    calls = {name: counted(monkeypatch, np.linalg, name) for name in LAPACK}
    spec = torus_spec_file
    if surface == "torus4":
        spec = write(tmp_path, "torus4.json", {"builtin": "torus4"})
    assert run(["surface", command, "--spec", spec]) == 0
    capsys.readouterr()
    assert {name: len(c) for name, c in calls.items()} == {
        "inv": 0, "solve": 0, "det": 0, "cholesky": 0,
        "eigvalsh": eigvalsh_calls, "eigh": eigh_calls}


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
