"""Benchmark of the laguerre package: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
Each workload is a closed loop with one client: the next request starts
when the previous one has finished, and the loop ends with the first whole
cycle of request kinds that ends after ``--seconds`` of wall time.  Time
metrics are CPU times scaled by a speed probe (speedprobe.py, README.md).
The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the run metadata, unscaled and wall times, and details.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see README.md).  ``--workload all`` runs every workload in its own process
and prints one table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path
from typing import NamedTuple

# One BLAS thread: the load comes from a single thread of one process, and
# idle BLAS threads that spin would add to the CPU time the metrics count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speedprobe  # noqa: E402
import tracer as tracing  # noqa: E402  (imports numpy)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Every bounded time metric is CPU time (time.process_time) of the process
# doing the work, scaled to a reference speed by the speed probe sampled
# while the work ran (speedprobe.py).  The host this benchmark was defined
# on is a shared VM: wall time there also counts the time the hypervisor
# gives the vCPU to other guests, and the cores change speed with their
# load.  Unscaled CPU times and wall times are in the report line.
#
# setup_s is the median scaled CPU time of fresh-interpreter imports: one
# before the first request, then one between request cycles whenever this
# many seconds have passed since the last.
SETUP_INTERVAL = 3.0
IMPORT_SAMPLES = 3      # -X importtime runs per traced run
CHILD_TIMEOUT = 120
MAX_REPORTED_FAILURES = 5

E2E_UNITS = {"setup_s": "s", "scaled_cpu_geomean_ms": "ms", "scaled_throughput_per_s": "1/s",
             "peak_rss_mb": "MB", "success_ratio": "ratio"}


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def run_child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT, env=child_env())


# ---------------------------------------------------------------------------
# Set-up and import measurements
# ---------------------------------------------------------------------------

class SetupSampler:
    """Times ``import laguerre.cli`` in fresh interpreters, spread over a run."""

    def __init__(self):
        self.cpu, self.wall, self.probes, self.last = [], [], [], -math.inf

    def __call__(self) -> None:
        """Take a sample if SETUP_INTERVAL has passed since the last one."""
        if time.perf_counter() - self.last < SETUP_INTERVAL:
            return
        proc = run_child([str(HERE / "speedprobe.py")])
        if proc.returncode != 0:
            raise RuntimeError(f"importing laguerre.cli failed: {proc.stderr.strip()}")
        cpu, wall, probes = json.loads(proc.stdout)
        self.cpu.append(cpu)
        self.wall.append(wall)
        self.probes.append(probes)
        self.last = time.perf_counter()

    def scaled(self, fallback: list) -> list:
        return [speedprobe.scaled(c, p, fallback) for c, p in zip(self.cpu, self.probes)]


def importtime_ms(stderr: str, prefix: str) -> float:
    """Cumulative -X importtime of the outermost modules named ``prefix``[.*]."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    ours = lambda name: name == prefix or name.startswith(prefix + ".")
    total, ancestors = 0, []
    # Children are printed before their parent; walk backwards to see ancestors first.
    for level, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if ours(name) and not any(ours(a) for _, a in ancestors):
            total += cumulative
        ancestors.append((level, name))
    return total / 1e3


def import_breakdown() -> dict:
    samples = {"import.laguerre_cli_ms": [], "import.scipy_ms": []}
    for _ in range(IMPORT_SAMPLES):
        proc = run_child(["-X", "importtime", "-c", "import laguerre.cli"])
        samples["import.laguerre_cli_ms"].append(importtime_ms(proc.stderr, "laguerre"))
        samples["import.scipy_ms"].append(importtime_ms(proc.stderr, "scipy"))
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# Request execution
# ---------------------------------------------------------------------------

class Executor:
    """Runs requests of one workload mode, optionally under a tracer."""

    def __init__(self, mode: str, directory: str, tracer=None, probe=None):
        self.mode, self.tracer, self.probe = mode, tracer, probe
        self.out_path = Path(directory) / "out.json"
        if mode == "warm":
            from laguerre import cli
            self.cli = cli

    def __call__(self, req, request_id: int):
        """Run one request; returns (CPU seconds, wall seconds, failure
        messages, speed probe samples taken during the request).

        An exception escaping the package is a failed request, not a
        benchmark error, so the loop goes on and reports it.
        """
        if self.tracer is not None:
            self.tracer.begin_request(request_id)
        if self.probe is not None:
            self.probe.take()
        c0, w0 = time.process_time(), time.perf_counter()

        def elapsed():
            cpu, wall = time.process_time() - c0, time.perf_counter() - w0
            return cpu, wall, self.probe.take() if self.probe is not None else []

        try:
            if self.mode == "elements":
                failures = req.op()
                cpu, wall, probes = elapsed()
                return cpu, wall, failures, probes
            code = self.cli.main(req.argv + ["--out", str(self.out_path)])
        except Exception as exc:
            cpu, wall, probes = elapsed()
            return cpu, wall, [f"{req.kind}: {type(exc).__name__}: {exc}"], probes
        cpu, wall, probes = elapsed()
        if code != 0:
            return cpu, wall, [f"{req.kind}: exit code {code}"], probes
        try:
            return cpu, wall, req.check(json.loads(self.out_path.read_text())), probes
        except (KeyError, TypeError, ValueError) as exc:
            return (cpu, wall, [f"{req.kind}: unreadable output ({type(exc).__name__}: {exc})"],
                    probes)


class Record(NamedTuple):
    kind: str
    cpu: float      # seconds
    wall: float     # seconds
    failures: list
    probes: list    # speed probe samples (seconds) taken during the request


def closed_loop(stream, execute, seconds: float, cycle: int, between=None) -> list:
    """Run whole cycles of ``cycle`` requests until ``seconds`` of wall time
    have passed, calling ``between()`` after each cycle; returns a Record
    per request."""
    records, deadline = [], time.perf_counter() + seconds
    while not records or len(records) % cycle or time.perf_counter() < deadline:
        req = next(stream)
        records.append(Record(req.kind, *execute(req, len(records))))
        if between is not None and len(records) % cycle == 0:
            between()
    return records


def warm_up(name: str, seed: int, execute, directory: str) -> None:
    """Let lazy set-up in numpy and the package finish before timing."""
    mode = workloads.WORKLOADS[name].mode
    if mode == "warm":
        execute(workloads.warm_up_request(directory), -1)
    elif mode == "elements":
        execute(next(workloads.element_requests(seed + 1)), -1)


def make_stream(name: str, seed: int, directory: str, reference: dict):
    if workloads.WORKLOADS[name].mode == "elements":
        return workloads.element_requests(seed)
    return workloads.cli_requests(name, seed, directory, reference)


# ---------------------------------------------------------------------------
# Statistics and metadata
# ---------------------------------------------------------------------------

def blas_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}}
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                info["threads"] = getattr(lib, fn)()
                break
    return info


def git_commit():
    """Commit of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_identity() -> tuple:
    """(sha256 over src/ python files, their total line count)."""
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def metadata(seed: int) -> dict:
    sha, lines = src_identity()
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "blas": blas_info(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed, "git_commit": git_commit(),
            "src_sha256": sha, "src_lines": lines}


def kind_medians(kinds, values) -> dict:
    """Request kind -> median of its requests' values."""
    groups = {}
    for kind, value in zip(kinds, values):
        groups.setdefault(kind, []).append(value)
    return {k: statistics.median(v) for k, v in groups.items()}


def latency(kinds, seconds, per_request: int) -> dict:
    """Summaries of per-request seconds over the medians of the request
    kinds, so that they do not depend on how many cycles a run completed
    (see README.md)."""
    medians = kind_medians(kinds, seconds)
    return {"geomean_ms": 1e3 * statistics.geometric_mean(medians.values()),
            "throughput_per_s": per_request * len(medians) / sum(medians.values())}


def by_kind(records, scaled=None) -> dict:
    kinds = [r.kind for r in records]
    columns = {"cpu": [r.cpu for r in records], "wall": [r.wall for r in records]}
    if scaled is not None:
        columns["scaled_cpu"] = scaled
    medians = {name: kind_medians(kinds, values) for name, values in columns.items()}
    out = {}
    for k in kinds:
        out.setdefault(k, {"requests": 0, **{f"median_{name}_ms": 1e3 * m[k]
                                             for name, m in medians.items()}})
        out[k]["requests"] += 1
    return out


def failure_messages(records) -> list:
    return [msg for r in records for msg in r.failures][:MAX_REPORTED_FAILURES]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def untraced_run(name: str, args, directory: str, reference: dict, report: dict):
    work = workloads.WORKLOADS[name]
    with speedprobe.SpeedProbe() as probe:
        execute = Executor(work.mode, directory, probe=probe)
        warm_up(name, args.seed, execute, directory)
        setup = SetupSampler()
        setup()
        stream = make_stream(name, args.seed, directory, reference)
        # Whole cycles only, so that every run weighs the request kinds alike.
        records = closed_loop(stream, execute, args.seconds, len(work.kinds), setup)
    failed = sum(1 for r in records if r.failures)
    per_request = workloads.ELEMENT_OPS_PER_REQUEST if work.mode == "elements" else 1
    kinds = [r.kind for r in records]
    every_probe = [p for r in records for p in r.probes]
    scaled = [speedprobe.scaled(r.cpu, r.probes, every_probe) for r in records]
    cpu = latency(kinds, scaled, per_request)
    metrics = {
        "setup_s": statistics.median(setup.scaled(every_probe)),
        "scaled_cpu_geomean_ms": cpu["geomean_ms"],
        "scaled_throughput_per_s": cpu["throughput_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": 1.0 - failed / len(records),
    }
    report.update({
        "failed_ratio": failed / len(records),
        "scaled_cpu_max_ms": 1e3 * max(scaled),
        "probe": {"reference_s": speedprobe.REFERENCE_S,
                  "median_s": statistics.median(every_probe), "samples": len(every_probe)},
        "unscaled_cpu": {"setup_s": statistics.median(setup.cpu),
                         **latency(kinds, [r.cpu for r in records], per_request)},
        "wall": {"setup_s": statistics.median(setup.wall),
                 **latency(kinds, [r.wall for r in records], per_request)},
        "setup_samples": len(setup.cpu),
        "requests": by_kind(records, scaled), "failures": failure_messages(records),
    })
    return len(records), failed, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def counts_repeat(name: str, seed: int, kinds_counts: dict, sha: str) -> list:
    """Compare the count metrics with an earlier traced run of the same seed
    and source tree; the first such run records them."""
    path = OUT / f"counts-{name}-seed{seed}.json"
    current = {"src_sha256": sha, "by_kind": kinds_counts}
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["src_sha256"] == sha:
            return [] if earlier["by_kind"] == kinds_counts else [
                f"counts differ from the earlier traced run recorded in {path.name}"]
    path.write_text(json.dumps(current, indent=1, sort_keys=True))
    return []


def traced_run(name: str, args, directory: str, reference: dict, report: dict):
    work = workloads.WORKLOADS[name]
    cycle = len(work.kinds)
    imports = import_breakdown()

    execute = Executor(work.mode, directory)
    warm_up(name, args.seed, execute, directory)
    plain = closed_loop(make_stream(name, args.seed, directory, reference),
                        execute, args.seconds / 2, cycle)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = closed_loop(make_stream(name, args.seed, directory, reference),
                             Executor(work.mode, directory, tracer), args.seconds / 2, cycle)
    finally:
        tracer.uninstall()

    kinds = {i: r.kind for i, r in enumerate(traced)}
    problems = []
    try:
        medians, kinds_counts = tracing.summarize(tracer.spans, kinds)
    except ValueError as exc:
        problems.append(str(exc))
        medians = {n: {"value": 0.0, "unit": u} for n, u in tracing.metric_units().items()}
        kinds_counts = {}
    layer = {k: {"value": v, "unit": "ms"} for k, v in imports.items()}
    layer.update(medians)
    typical = lambda recs: latency([r.kind for r in recs], [r.cpu for r in recs], 1)["geomean_ms"]
    layer["trace.overhead_ratio"] = {"value": typical(traced) / typical(plain), "unit": "ratio"}
    if not problems:
        problems += counts_repeat(name, args.seed, kinds_counts, report["metadata"]["src_sha256"])
    spans_path = OUT / f"spans-{name}-seed{args.seed}.json"
    tracer.dump(str(spans_path), kinds)

    records = plain + traced
    failed = sum(1 for r in records if r.failures)
    report.update({
        "failed_ratio": failed / len(records), "count_problems": problems,
        "untraced_requests": by_kind(plain), "traced_requests": by_kind(traced),
        "counts_by_kind": kinds_counts, "spans_file": str(spans_path.relative_to(ROOT)),
        "failures": failure_messages(records),
    })
    return len(records), failed, layer


def run_one(args) -> int:
    reference = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    directory = OUT / f"run-{os.getpid()}"
    directory.mkdir()
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "metadata": metadata(args.seed)}
    try:
        run = traced_run if args.trace else untraced_run
        attempted, failed, metrics = run(args.workload, args, str(directory), reference, report)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    correct = failed == 0 and not report.get("count_problems")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of its metrics."""
    status = 0
    print(f"{'workload':<16} {'metric':<40} {'value':>14}  unit")
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:<16} failed to run: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:<16} {metric:<40} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<16} {'correct':<40} {str(result['correct']):>14}  "
              f"({result['failed']} of {result['attempted']} failed)")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "laguerre" / "cli.py").is_file():
        print(f"error: the laguerre package is not at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
