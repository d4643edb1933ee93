"""Pair recorder: the benchmark of a change against a parent revision, in alternating pairs.

    python tools/pairs.py --parent REV --pairs N --record BENCH_<label>.json
    python tools/pairs.py --parent REV --pairs 10 --seed 41000 \\
        --claim hypersurface-r4:scaled_cpu_geomean_ms --record BENCH_<label>.json

REV's tree is exported offline with ``git archive`` into a temporary
directory, as ``tools/outputs.py`` does; the change is the working tree's
``src/`` and ``perfbench/``, copied into a second temporary directory, so
both sides run from a fresh directory of the same layout and nothing under
``perfbench/`` is edited.  For each workload of ``BENCHMARK.json`` and each
pair i, both sides run the declared command (``perfbench/run.py --workload
W --seed S --trace 0``, for the benchmark's run length) with the same seed, S = --seed +
100 * (workload index) + i; the parent runs first on even pairs and the
change first on odd ones.  Runs are sequential, one process at a time.

The record holds, per workload: for every end-to-end metric, each side's
runs, quartiles (q1, median, q3), the pairs the change wins (by the
metric's direction), the relative change of the medians, the parent's
interquartile range, and whether the change stays within the metric's
bound; per request kind, the median over runs of each run's median scaled
and unscaled CPU time and the pairs the change is lower in; and per run,
its correctness and the user time, system time and minor page faults of
its whole process tree (``getrusage`` of the waited-for children).  Beside
them, per request kind, stands the tracemalloc peak of one warm request on
each side (``kind_peaks``): a fresh interpreter per tree runs the first
cycle of each workload's request stream for the seed ``--seed``, each
request once untraced and once traced, so a change in ``peak_rss_mb`` can
be traced to the requests whose arrays moved, and once more under a
profile hook that names the ``laguerre`` functions running at the peak
(``peak_path``).  A ``--claim W:METRIC`` adds a verdict: met when the
change is better in at least 9 of 10 pairs (the same share of any N) and
its median is better by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from outputs import ROOT, _export  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WIN_SHARE = 0.9     # a claimed gain must win this share of the pairs


def quartiles(values: list) -> list:
    """[q1, median, q3] (inclusive method, as ``statistics.quantiles``)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def copy_change(directory: Path) -> Path:
    """The working tree's src/ and perfbench/ copied into ``directory``."""
    change = directory / "change"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, change / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    return change


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: its result line, report line and the
    rusage of its process tree."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
                           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                           "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed: {proc.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "report": json.loads(lines[-2])["report"],
            "rusage": {"user_s": after.ru_utime - before.ru_utime,
                       "sys_s": after.ru_stime - before.ru_stime,
                       "minflt": after.ru_minflt - before.ru_minflt}}


def metric_summary(metric: dict, parent: list, change: list) -> dict:
    """Quartiles, wins and the bound check of one end-to-end metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    rel = (c[1] - p[1]) / abs(p[1]) if p[1] else 0.0
    return {"parent_q1_median_q3": p, "change_q1_median_q3": c,
            "change_better_in_pairs": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "pairs": len(parent), "relative_change_of_median": rel,
            "parent_iqr": p[2] - p[0], "bound": metric["bound"],
            "within_bound": sign * rel >= -metric["bound"],
            "parent_runs": parent, "change_runs": change}


def kind_medians(parent_runs: list, change_runs: list) -> dict:
    """Per request kind and time column: the median over runs of each run's median."""
    out = {}
    for column in ("scaled_cpu", "cpu"):
        key = f"median_{column}_ms"
        per_kind = {}
        for kind in parent_runs[0]["report"]["requests"]:
            p = [r["report"]["requests"][kind][key] for r in parent_runs]
            c = [r["report"]["requests"][kind][key] for r in change_runs]
            pm, cm = statistics.median(p), statistics.median(c)
            per_kind[kind] = {"parent_median_of_run_medians": pm,
                              "change_median_of_run_medians": cm,
                              "relative_change": (cm - pm) / pm,
                              "change_lower_in_pairs": sum(b < a for a, b in zip(p, c))}
        out[key] = per_kind
    return out


def _run_kind_peaks(tree: Path, seed: int) -> dict:
    """Workload -> request kind -> ``traced_peak`` of one warm request, run
    with the package and the workloads of ``tree`` (on sys.path)."""
    import workloads
    from laguerre import cli

    reference = json.loads((tree / "perfbench" / "reference.json").read_text())
    peaks = {}
    with tempfile.TemporaryDirectory(prefix="peaks-") as directory:
        out = str(Path(directory) / "out.json")

        def run(request):
            if request.op is not None:
                request.op()
            elif cli.main(request.argv + ["--out", out]) != 0:
                raise SystemExit(f"{request.kind}: {request.argv} failed")

        for name, work in workloads.WORKLOADS.items():
            stream = (workloads.element_requests(seed) if work.mode == "elements"
                      else workloads.cli_requests(name, seed, directory, reference))
            per_kind = {}
            for _ in work.kinds:
                request = next(stream)
                run(request)
                per_kind[request.kind] = traced_peak(lambda: run(request))
            peaks[name] = per_kind
    return peaks


def laguerre_path(frame) -> str | None:
    """The ``laguerre`` functions on the stack of ``frame``, innermost
    first, as "module.qualname" joined by " < "; None outside the package."""
    names = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("laguerre."):
            names.append(f"{module.removeprefix('laguerre.')}.{frame.f_code.co_qualname}")
        frame = frame.f_back
    return " < ".join(names) or None


def traced_peak(call) -> dict:
    """The tracemalloc peak (MiB) of ``call``, and where it is reached
    (``peak_path``, from a second traced call)."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"mib": peak / 2 ** 20, "at": peak_path(call)}


def peak_path(call) -> str | None:
    """The ``laguerre`` call path (``laguerre_path``) at the tracemalloc peak
    of ``call``, read by a ``sys.setprofile`` hook at the event that first
    reads the peak.  The peak is reached between two events, inside the
    function running then: the caller of a Python function being called,
    the returning function, or the Python caller of a C function.  The hook
    makes the interpreter form a frame object per call (about 0.05 MiB more
    on a fine-grid request), so the peak itself is read without it."""
    top, where = 0, None

    def hook(frame, event, arg):
        nonlocal top, where
        peak = tracemalloc.get_traced_memory()[1]
        if peak > top:
            top, where = peak, laguerre_path(frame.f_back if event == "call" else frame)

    tracemalloc.start()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return where


def kind_peaks(tree: Path, seed: int) -> dict:
    """``_run_kind_peaks`` of ``tree`` in a fresh interpreter with one BLAS thread."""
    paths = [tree / "src", tree / "perfbench", Path(__file__).resolve().parent]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(map(str, paths)))
    child = ("import json, sys; from pathlib import Path; import pairs; "
             "print(json.dumps(pairs._run_kind_peaks(Path(sys.argv[1]), int(sys.argv[2]))))")
    proc = subprocess.run([sys.executable, "-c", child, str(tree), str(seed)],
                          env=env, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name}: per-kind peaks failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def peak_summary(parent: dict, change: dict) -> dict:
    """Per request kind: both sides' tracemalloc peaks (MiB), the relative
    change and each side's laguerre call path at its peak."""
    return {kind: {"parent_mib": parent[kind]["mib"], "change_mib": change[kind]["mib"],
                   "relative_change": (change[kind]["mib"] - parent[kind]["mib"])
                   / parent[kind]["mib"],
                   "parent_peak_at": parent[kind]["at"], "change_peak_at": change[kind]["at"]}
            for kind in parent}


def claim_verdict(metric: dict, summary: dict) -> dict:
    """Whether a claimed gain holds: enough pair wins and a median better by
    more than the parent's interquartile range."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = summary["parent_q1_median_q3"][1], summary["change_q1_median_q3"][1]
    wins, pairs = summary["change_better_in_pairs"], summary["pairs"]
    gain = sign * (c - p)
    return {"met": wins >= math.ceil(WIN_SHARE * pairs) and gain > summary["parent_iqr"],
            "change_better_in_pairs": wins, "pairs": pairs, "parent_median": p,
            "change_median": c, "median_gain": gain, "parent_iqr": summary["parent_iqr"]}


def record_workload(index: int, workload: str, trees: dict, args) -> dict:
    runs = {"parent": [], "change": []}
    order = []
    for i in range(args.pairs):
        seed = args.seed + 100 * index + i
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(f"{sides[0]} first")
        for side in sides:
            runs[side].append(run_once(trees[side], workload, seed))
            print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                  f"{json.dumps(runs[side][-1]['result']['metrics'])}", file=sys.stderr, flush=True)
    metrics = {m["name"]: metric_summary(
        m, *([r["result"]["metrics"][m["name"]]["value"] for r in runs[side]]
             for side in ("parent", "change")))
        for m in BENCHMARK["end_to_end"]}
    return {
        "seeds": [args.seed + 100 * index + i for i in range(args.pairs)],
        "run_order": order,
        "end_to_end": metrics,
        "per_kind": kind_medians(runs["parent"], runs["change"]),
        "per_run": {side: [{"correct": r["result"]["correct"], "failed": r["result"]["failed"],
                            "attempted": r["result"]["attempted"], **r["rusage"]}
                           for r in runs[side]] for side in runs},
        "src_sha256": {side: sorted({r["report"]["metadata"]["src_sha256"] for r in runs[side]})
                       for side in runs},
        "metadata": {k: runs["change"][0]["report"]["metadata"][k]
                     for k in ("python", "numpy", "nproc", "blas")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=40000, help="seed of the first pair")
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain the change claims")
    parser.add_argument("--record", help="write the record here (default: stdout)")
    args = parser.parse_args(argv)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": _export(args.parent, tmp), "change": copy_change(tmp)}
        record = {"parent": args.parent, "pairs": args.pairs, "seconds": BENCHMARK["run_seconds"],
                  "how": " ".join(" ".join(__doc__.split("\n\n")[2:]).split()),
                  "workloads": {w: record_workload(i, w, trees, args)
                                for i, w in enumerate(names)}}
        peaks = {side: kind_peaks(tree, args.seed) for side, tree in trees.items()}
        for w in names:
            record["workloads"][w]["tracemalloc_peak_mib"] = peak_summary(
                peaks["parent"][w], peaks["change"][w])
    if args.claim:
        workload, name = args.claim.split(":")
        metric = next(m for m in BENCHMARK["end_to_end"] if m["name"] == name)
        record["claim"] = {"workload": workload, "metric": name, **claim_verdict(
            metric, record["workloads"][workload]["end_to_end"][name])}
    text = json.dumps(record, indent=1, sort_keys=True)
    if args.record:
        Path(args.record).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
