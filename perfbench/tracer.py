"""Layer tracing of the laguerre package from outside its source tree.

The tracer replaces the public functions named in ``LAYERS`` with timing
wrappers on their modules.  Package code calls these functions through
module attributes (``fd.gradient``) or module globals (``shape_data`` inside
``patches``), which both resolve to the module dictionary, so nested calls
such as ``hypersurface.analyze`` -> ``fd.gradient`` are caught without
editing the package.  Functions not listed stay unwrapped: their time is
part of the self time of the listed function that calls them.

A span is ``[name, start, end, parent, request, extra]``; ``parent`` is the
index of the enclosing span (-1 for none) and ``extra`` a per-span number
(bytes for ``fd.gradient``, the finite share of the residual fields for the
residual passes).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# Layer boundaries: module -> public functions wrapped in it.
LAYERS = {
    "cli": ("main",),
    "patches": ("build_patch", "shape_data"),
    "spaceforms": ("embed_patch", "transfer_check"),
    "hypersurface": ("analyze", "structural_residuals", "structural_residual_fields",
                     "transform_patch", "laguerre_volume", "compare_invariants"),
    "minimality": ("minimality_report", "el_residual", "eta_laplacian_diagnostics",
                   "third_form_laplacian_r"),
    "fd": ("gradient", "christoffel", "laplace_beltrami", "riemann_tensor", "integrate",
           "cov_d_covector", "cov_d_tensor2", "cov_d_tensor3",
           "grid_inv", "grid_det", "grid_cholesky", "grid_eigvalsh", "selfadjoint_eigvals"),
    "group": ("random_transform", "decompose", "act_on_coord", "compose_script"),
    "spheres": ("sphere_coord", "classify_coord", "oriented_contact", "tangential_invariant"),
    "lorentz": ("inner", "is_laguerre_matrix"),
}

# Self-time unit of each module's layers; "ms" for modules not named.
UNITS = {"group": "us", "spheres": "us", "lorentz": "us"}
SCALE = {"ms": 1e3, "us": 1e6}

# Spans reported under another metric stem; spans of one stem are summed.
STEMS = {
    "cli.main": "cli",
    # The residual pass's own work (component reductions) sits in
    # structural_residual_fields, so both spans make up this layer.
    "hypersurface.structural_residual_fields": "hypersurface.structural_residuals",
    **{f"fd.cov_d_{form}": "fd.cov_d" for form in ("covector", "tensor2", "tensor3")},
    **{f"fd.{fn}": "fd.grid_linalg" for fn in ("grid_inv", "grid_det", "grid_cholesky",
                                               "grid_eigvalsh", "selfadjoint_eigvals")},
}

# Stems whose calls are counted (metric ``<stem>.calls``).
COUNTED = ("patches.shape_data", "fd.gradient", "fd.cov_d", "lorentz.inner")

# Spans that hand a new patch to the pipeline (denominator of per_patch).
PATCH_MAKERS = ("patches.build_patch", "spaceforms.embed_patch", "hypersurface.transform_patch")
RESIDUAL_PASSES = ("hypersurface.structural_residual_fields", "minimality.el_residual")

# Metrics that must repeat exactly between traced runs of one seed, and their units.
COUNT_UNITS = {**{f"{stem}.calls": "count" for stem in COUNTED},
               "fd.gradient.bytes_computed": "B", "patches.shape_data.per_patch": "calls/patch",
               "fd.valid_fraction": "ratio"}


def self_time_metric(span: str) -> tuple:
    """(self-time metric name, unit) a span's time is reported under."""
    unit = UNITS.get(span.split(".")[0], "ms")
    return f"{STEMS.get(span, span)}.self_{unit}", unit


def metric_units() -> dict:
    """Every per-layer metric of the tracer -> its unit."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            metric, unit = self_time_metric(f"{module}.{name}")
            units[metric] = unit
    return {**units, **COUNT_UNITS}


def _finite_share(result) -> float:
    """Smallest share of grid points on which a residual field is finite."""
    fields = result.values() if isinstance(result, dict) else result
    return min(float(np.isfinite(f).mean()) for f in fields)


class Tracer:
    """Collects spans of wrapped package functions, grouped by request."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self._originals = []

    def install(self) -> None:
        for short, names in LAYERS.items():
            module = importlib.import_module(f"laguerre.{short}")
            for name in names:
                fn = getattr(module, name)
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{short}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if label == "fd.gradient":
            def extra(args, out):
                return float(args[0].nbytes + out.nbytes)
        elif label in RESIDUAL_PASSES:
            def extra(args, out):
                return _finite_share(out)
        else:
            extra = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, out)
            return out

        return traced

    def begin_request(self, request: int) -> None:
        self.request = request

    def dump(self, path: str, kinds: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "extra"],
                       "request_kinds": kinds, "spans": self.spans}, fh)


def per_request(spans) -> dict:
    """request id -> {"self": {name: s}, "calls": {name: n}, "bytes": b, "share": f}."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"self": defaultdict(float), "calls": defaultdict(int),
                               "bytes": 0.0, "share": None})
    for i, (name, start, end, _, request, extra) in enumerate(spans):
        rec = out[request]
        rec["self"][name] += end - start - child[i]
        rec["calls"][name] += 1
        if name == "fd.gradient":
            rec["bytes"] += extra
        elif name in RESIDUAL_PASSES:
            rec["share"] = extra if rec["share"] is None else min(rec["share"], extra)
    return out


def request_metrics(rec: dict) -> dict:
    """Per-layer values of one request; layers it never entered are absent."""
    calls, vals = rec["calls"], {}
    for name, seconds in rec["self"].items():
        metric, unit = self_time_metric(name)
        vals[metric] = vals.get(metric, 0.0) + SCALE[unit] * seconds
        stem = STEMS.get(name, name)
        if stem in COUNTED:
            vals[f"{stem}.calls"] = vals.get(f"{stem}.calls", 0) + calls[name]
    if "fd.gradient" in calls:
        vals["fd.gradient.bytes_computed"] = rec["bytes"]
    made = sum(calls[n] for n in PATCH_MAKERS)
    if made:
        vals["patches.shape_data.per_patch"] = calls["patches.shape_data"] / made
    if rec["share"] is not None:
        vals["fd.valid_fraction"] = rec["share"]
    return vals


def summarize(spans, kinds: dict):
    """({metric: {"value", "unit"}} with the median over requests of each
    layer metric, per-kind count metrics).

    A layer's median is taken over the requests that entered it; a layer no
    request entered reads 0.
    """
    rows = {req: request_metrics(rec) for req, rec in per_request(spans).items()
            if req in kinds}
    medians = {}
    for name, unit in metric_units().items():
        values = [r[name] for r in rows.values() if name in r]
        medians[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    by_kind = {}
    for req in sorted(rows):
        counts = {k: v for k, v in rows[req].items() if k in COUNT_UNITS}
        seen = by_kind.setdefault(kinds[req], counts)
        if seen != counts:
            raise ValueError(f"counts differ between two {kinds[req]!r} requests: "
                             f"{seen} vs {counts}")
    return medians, by_kind
