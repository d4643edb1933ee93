"""Moved-outputs recorder: which reported numbers does a change move, and by how much?

    python tools/outputs.py --parent REV --record OUTPUTS_<label>.json
    python tools/outputs.py --record OUT.json      # the working tree alone

One fixed list of CLI cases (``CASES``) runs on the working tree and, with
``--parent``, on REV, exported offline with ``git archive`` into a
temporary directory.  Each tree runs in its own interpreter with
PYTHONPATH at its ``src/`` and one BLAS thread, on the same input files,
which this script writes (sampled tori from their closed form, so both
trees read the same samples).  The record holds, per case, both exit
codes and, per numeric output field (JSON leaves, ``--csv`` columns):
"identical", its largest absolute and relative move ({"abs", "rel"}), or
"added"/"removed"; an error message is compared as text.  A relative move
is taken against the parent's value, so a field at rounding level reads
a large relative move of a tiny absolute one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

BUILTINS = ("torus", "sphere", "cylinder", "translational_graph", "torus4",
            "maximal_catenoid_r31", "saddle_r30")
# Builtins the screen rejects (umbilic, flat direction): they exit 4.
DEGENERATE = ("sphere", "cylinder")

SCRIPTS = {
    "t1.json": [{"kind": "isometry", "A": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                 "a": [0.3, -0.2, 0.1]},
                {"kind": "parabolic", "t": 0.2}, {"kind": "hyperbolic", "t": -0.15}],
    "t2.json": [{"kind": "hyperbolic", "t": 0.25}, {"kind": "parabolic", "t": -0.1},
                {"kind": "isometry", "A": [[0.6, 0.0, -0.8], [0.0, 1.0, 0.0], [0.8, 0.0, 0.6]],
                 "a": [-0.1, 0.25, 0.05]}],
}
ELEMENTS = {"a.json": {"kind": "sphere", "center": [0, 0, 0], "radius": 1},
            "b.json": {"kind": "sphere", "center": [3, 0, 0], "radius": -2},
            "p.json": {"kind": "plane", "normal": [0, 0, 1], "offset": 1.0}}


def _cases() -> dict:
    """name -> (argv, expected exit code); file names are those of ``write_inputs``."""
    cases = {}
    for name in BUILTINS:
        for command in ("analyze", "minimality", "volume"):
            cases[f"{command}:{name}"] = (["surface", command, "--spec", f"{name}.json"],
                                          4 if name in DEGENERATE else 0)
    for grid in ("65x64", "33x32"):
        for command in ("analyze", "minimality", "volume"):
            cases[f"{command}:sampled_torus_{grid}"] = (
                ["surface", command, "--spec", f"sampled_torus_{grid}.json"], 0)
    for script in SCRIPTS:
        cases[f"compare:torus:{script}"] = (["surface", "compare", "--spec", "torus.json",
                                             "--spec2", "torus.json", "--transform", script], 0)
        for command in ("compose", "decompose"):
            cases[f"group {command}:{script}"] = (["group", command, "--transform", script], 0)
    for name in ("maximal_catenoid_r31", "saddle_r30"):
        cases[f"embed:{name}"] = (["surface", "embed", "--spec", f"{name}.json"], 0)
    cases["spheres contact:a-b"] = (["spheres", "contact", "--a", "a.json", "--b", "b.json"], 0)
    cases["spheres contact:a-p"] = (["spheres", "contact", "--a", "a.json", "--b", "p.json"], 0)
    cases["analyze:torus --csv"] = (["surface", "analyze", "--spec", "torus.json",
                                     "--csv", "fields.csv"], 0)
    return cases


CASES = _cases()


def sampled_torus(nu: int, nv: int) -> dict:
    """Spec of the torus R = 2, a = 1 sampled from its closed form on nu x nv
    points, u in [-pi/3, pi/3] and periodic v."""
    u = np.linspace(-np.pi / 3, np.pi / 3, nu)
    v = 2 * np.pi * np.arange(nv) / nv
    U, V = np.meshgrid(u, v, indexing="ij")
    w = 2.0 + np.cos(U)
    points = np.stack([w * np.cos(V), w * np.sin(V), np.sin(U)], axis=-1)
    normals = np.stack([np.cos(U) * np.cos(V), np.cos(U) * np.sin(V), np.sin(U)], axis=-1)
    return {"samples": {"points": points.tolist(), "normals": normals.tolist()},
            "grid": {"u": [-np.pi / 3, np.pi / 3, nu], "v": [0.0, 2 * np.pi, nv],
                     "periodic": ["v"]}}


def write_inputs(directory: Path) -> None:
    """The input files every case reads."""
    files = {f"{name}.json": {"builtin": name} for name in BUILTINS}
    files.update({"sampled_torus_65x64.json": sampled_torus(65, 64),
                  "sampled_torus_33x32.json": sampled_torus(33, 32), **SCRIPTS, **ELEMENTS})
    for name, obj in files.items():
        (directory / name).write_text(json.dumps(obj))


def run_cases(directory: Path, names=None) -> dict:
    """Run the cases (all, or ``names``) with the imported package, in
    ``directory``, which holds the inputs: name -> {"exit", "output" or
    "error", "csv" when written}."""
    from laguerre import cli

    results = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name in names or CASES:
            argv = CASES[name][0]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--out", "out.json"])
            rec = {"exit": code}
            if code == 0:
                rec["output"] = json.loads(Path("out.json").read_text())
                os.remove("out.json")
            else:
                rec["error"] = err.getvalue().strip()
            if "--csv" in argv and code == 0:
                csv = Path(argv[argv.index("--csv") + 1])
                header = csv.read_text().splitlines()[0].split(",")
                data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
                rec["csv"] = {col: data[:, i].tolist() for i, col in enumerate(header)}
                os.remove(csv)
            results[name] = rec
    finally:
        os.chdir(cwd)
    return results


def _leaves(obj, prefix=""):
    """(path, value) of every leaf of a JSON value; a list of numbers is one leaf."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list) and not all(isinstance(v, (int, float)) for v in obj):
        for i, val in enumerate(obj):
            yield from _leaves(val, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) or (
        isinstance(value, list) and all(isinstance(v, (int, float)) for v in value))


def _move(old, new):
    """"identical", {"abs", "rel"} for numbers, or {"old", "new"} otherwise."""
    if old == new:
        return "identical"
    if not (_numeric(old) and _numeric(new)) or np.shape(old) != np.shape(new):
        return {"old": old, "new": new}
    a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    diff = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = diff / np.abs(a)
    return {"abs": float(diff.max()), "rel": float(np.nanmax(rel))}


def compare(parent: dict, change: dict) -> dict:
    """Per case: both exit codes and the move of every field."""
    record = {}
    for name in CASES:
        old, new = parent[name], change[name]
        rec = {"exit": [old["exit"], new["exit"]]}
        if "error" in old or "error" in new:
            rec["error"] = _move(old.get("error"), new.get("error"))
        fields = {}
        for part in ("output", "csv"):
            a = dict(_leaves(old.get(part, {}), part))
            b = dict(_leaves(new.get(part, {}), part))
            for key in sorted(a.keys() | b.keys()):
                fields[key] = ("removed" if key not in b else "added" if key not in a
                               else _move(a[key], b[key]))
        rec["fields"] = fields
        record[name] = rec
    return record


def _run_tree(src: Path, inputs: Path) -> dict:
    """The case results of the package under ``src``, in a fresh interpreter."""
    out = inputs / "results.json"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--run-cases", str(inputs), str(out)],
                   env=env, check=True)
    results = json.loads(out.read_text())
    out.unlink()
    return results


def _export(rev: str, directory: Path) -> Path:
    """REV's tree exported into ``directory`` (git archive; no network)."""
    archive = directory / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(directory / "parent", filter="data")
    archive.unlink()
    return directory / "parent"


def summary(record: dict) -> dict:
    """Counts of identical and moved fields and the cases whose exit code or
    message changed."""
    moved = {f"{case}: {key}": move for case, rec in record.items()
             for key, move in rec["fields"].items() if move != "identical"}
    return {"fields_identical": sum(move == "identical" for rec in record.values()
                                    for move in rec["fields"].values()),
            "fields_moved": len(moved),
            "exit_or_message_changed": sorted(
                case for case, rec in record.items()
                if rec["exit"][0] != rec["exit"][1]
                or rec.get("error", "identical") != "identical"),
            "moved": moved}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="revision to compare against (git archive export)")
    parser.add_argument("--record", help="write the record here (default: stdout)")
    parser.add_argument("--run-cases", nargs=2, metavar=("INPUTS", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_cases:
        inputs, out = map(Path, args.run_cases)
        Path(out).write_text(json.dumps(run_cases(inputs)))
        return 0
    with tempfile.TemporaryDirectory(prefix="outputs-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        change = _run_tree(ROOT / "src", inputs)
        if args.parent:
            parent = _run_tree(_export(args.parent, tmp) / "src", inputs)
            record = compare(parent, change)
            result = {"parent": args.parent, "summary": summary(record), "cases": record}
        else:
            result = {"cases": {name: {"exit": rec["exit"]} for name, rec in change.items()}}
    text = json.dumps(result, indent=1, sort_keys=True, allow_nan=True)
    if args.record:
        Path(args.record).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
