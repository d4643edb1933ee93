"""Seeded request streams of the benchmark workloads and their output oracles.

Every workload is a fixed cycle of request kinds, repeated.  The seed only
draws the values that do not change the amount of work (group elements,
sphere pairs); surface specs and grids are fixed, so the outputs pinned in
``reference.json`` apply to every seed.

A request fails when its exit code is not 0 or when an oracle below
reports a problem.  Oracles read named output fields only; in particular
``interior_margin`` is not checked, because its reported value is known to
be wrong and fixing it must not count as a failure.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PIN_REL = 1e-12          # pinned outputs: relative drift allowed
RESIDUAL_TOL = 1e-4      # criterion 4; its gate grid is 97 x 96, so only the
                         # fine (195 x 192) requests are held to it
VOLUME_GAP_TOL = 1e-6    # criterion 2
INVARIANCE_TOL = 1e-6    # criterion 5, patches
TRANSFER_TOL = 1e-6      # transfer identities of the space-form embedding
CATENOID_LAP_TOL = 1e-6  # criterion 7
CATENOID_EL_TOL = 1e-4   # criterion 7
BRIDGE_TOL = 1e-3        # criterion 8
ELEMENT_TOL = 1e-10      # criteria 5, 6 and 10
CONTACT_TOL = 1e-9       # criterion 10
F_ZERO_TOL = 1e-8        # criterion 10

CRITERION4 = ("b_sqnorm", "b_trace", "l_trace_vs_lap", "b_codazzi", "gauss",
              "ricci_vs_l", "b_divergence")

TORUS = {"builtin": "torus", "params": {"R": 2.0, "a": 1.0}}
TORUS4 = {"builtin": "torus4"}
CATENOID = {"space": "r31", "builtin": "maximal_catenoid_r31"}
# Known defect: `surface compare --grid-refine K` refines --spec but not
# --spec2, so the two grids differ and the command exits 2.  The fine
# compare request therefore states its 195 x 192 grid (the default torus
# grid times 3) inside both specs; once the flag refines both, it can use
# TORUS with --grid-refine 3 like the other fine requests.
TORUS_FINE = {**TORUS, "grid": {"u": [-math.pi / 3, math.pi / 3, 195],
                                "v": [0.0, 2 * math.pi, 192], "periodic": ["v"]}}

# An element request runs this many rounds of the four element operations
# (about a second).  The host this was tuned on alternates between a fast
# and a slow speed state every few seconds; with one round per request
# (2 ms) the median fell in one state or the other and varied by 0.37 of
# itself over ten seeds, while a request of a second averages the states.
ELEMENT_ROUNDS = 500
ELEMENT_OPS_PER_REQUEST = 4 * ELEMENT_ROUNDS

SPECS = {"torus": TORUS, "torus4": TORUS4, "catenoid": CATENOID, "torus_fine": TORUS_FINE}


@dataclass
class Request:
    """One request: CLI arguments (``argv``) or an in-process element batch (``op``)."""

    kind: str
    argv: list = field(default_factory=list)
    check: Callable[[dict], list] | None = None
    op: Callable[[], list] | None = None
    key: str | None = None   # reference.json entry of its pinned outputs, if any


@dataclass
class Workload:
    mode: str            # "warm" (in-process CLI) or "elements"
    kinds: tuple         # request kinds of one cycle, in order


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    "surface-fine": Workload("warm", ("analyze", "minimality", "volume", "embed", "compare")),
    "hypersurface-r4": Workload("warm", ("analyze", "minimality", "volume")),
    "elements": Workload("elements", ("batch",)),
}


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def pins(kind: str, out: dict) -> dict:
    """Output fields pinned to their recorded values (volume, shape, spectra);
    an ``embed`` request pins the analysis of the embedded patch."""
    if kind == "embed":
        out = out["analysis"]
    vals = {k: out[k] for k in ("volume", "volume_curvature_form") if k in out}
    if "shape" in out:
        vals.update({f"shape.{k}": v for k, v in out["shape"].items()})
        for name in ("s_eigenvalues", "b_eigenvalues"):
            for end in ("min", "max"):
                vals[f"{name}.{end}"] = out[name][end]
    return vals


def _pin_failures(key: str, got: dict, reference: dict) -> list:
    expected = reference[key]
    bad = []
    for name, ref in expected.items():
        a = np.asarray(got.get(name, np.nan), dtype=float)
        b = np.asarray(ref, dtype=float)
        if a.shape != b.shape or not np.all(np.abs(a - b) <= PIN_REL * np.abs(b)):
            bad.append(f"{key} {name}={got.get(name)} drifted from {ref}")
    return bad


def _above(values: dict, names, tol: float, label: str) -> list:
    return [f"{label} {k}={values[k]:.3e} > {tol:g}" for k in names
            if values[k] is None or not values[k] <= tol]


def _analysis_failures(key: str, out: dict, reference: dict, gate: bool) -> list:
    bad = _pin_failures(key, pins("analyze", out), reference)
    if "volume_curvature_form" in out:
        gap = abs(out["volume"] - out["volume_curvature_form"]) / abs(out["volume"])
        bad += _above({"forms_gap": gap}, ["forms_gap"], VOLUME_GAP_TOL, key)
    if gate:
        res = out["residuals"]
        names = list(CRITERION4) + sorted(k for k in res if k.startswith("frame_"))
        bad += _above(res, names, RESIDUAL_TOL, key)
    return bad


def analyze_check(key: str, reference: dict, gate: bool):
    return lambda out: _analysis_failures(key, out, reference, gate)


def volume_check(key: str, reference: dict):
    def check(out):
        bad = _pin_failures(key, pins("volume", out), reference)
        if "forms_relative_gap" in out:
            bad += _above(out, ["forms_relative_gap"], VOLUME_GAP_TOL, key)
        return bad
    return check


def minimality_check(surface: str):
    def check(out):
        bad = [] if out["verdict"] == "non-minimal" else [f"{surface} reported minimal"]
        if out["consistent"] is not True:
            bad.append(f"{surface}: the two minimality criteria disagree")
        if out["crosscheck_lap_r"] is not None:
            bad += _above(out, ["crosscheck_lap_r"], BRIDGE_TOL, surface)
        return bad
    return check


def embed_check(key: str, reference: dict):
    def check(out):
        bad = _above(out["transfer"], sorted(out["transfer"]), TRANSFER_TOL, key)
        rep = out["minimality"]
        if rep["verdict"] != "minimal":
            bad.append(f"{key}: maximal catenoid reported non-minimal")
        bad += _above(rep, ["max_laplacian_r"], CATENOID_LAP_TOL, key)
        bad += _above(rep, ["max_el_div_form"], CATENOID_EL_TOL, key)
        return bad + _pin_failures(key, pins("embed", out), reference)
    return check


def compare_check(out: dict) -> list:
    return _above(out, ["max_g_deviation", "max_s_eig_deviation"], INVARIANCE_TOL, "compare")


def contact_agrees(pair, contact: bool, F: float) -> bool:
    """Criterion 10: oriented contact holds exactly when F vanishes."""
    scale = 1.0 + sum(float(p @ p) + r * r for p, r in pair)
    return contact == (abs(F) <= F_ZERO_TOL * scale)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def transform_script(rng) -> list:
    """Four-factor transform script with every generator family, drawn from ``rng``
    at the scales of the CLI compare test (translations 0.3, flows 0.2)."""
    kinds = rng.integers(0, 3, size=4)
    kinds[:3] = [0, 1, 2]
    script = []
    for kind in kinds:
        if kind == 0:
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            script.append({"kind": "isometry", "A": Q.tolist(),
                           "a": (0.3 * rng.standard_normal(3)).tolist()})
        else:
            script.append({"kind": "parabolic" if kind == 1 else "hyperbolic",
                           "t": float(0.2 * rng.standard_normal())})
    return script


def sphere_pair(rng, tangent: bool) -> list:
    """Two oriented spheres (center, radius), tangent or generic (criterion 10)."""
    if tangent:
        x = rng.standard_normal(3)
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        r1, r2 = rng.standard_normal(2)
        return [(x - r1 * xi, float(r1)), (x - r2 * xi, float(r2))]
    return [(rng.standard_normal(3), float(rng.standard_normal())) for _ in range(2)]


def _write(directory: str, name: str, obj) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def cli_requests(name: str, seed: int, directory: str, reference: dict):
    """Endless request stream of a surface workload; inputs are written to ``directory``."""
    rng = np.random.default_rng(seed)
    spec = {key: _write(directory, f"{key}.json", s) for key, s in SPECS.items()}
    fine = name == "surface-fine"
    surface, grid = ("torus", "195x192") if fine else ("torus4", "33x25x24")
    refine = ["--grid-refine", "3"] if fine else []
    while True:
        for kind in WORKLOADS[name].kinds:
            if kind == "analyze":
                key = f"analyze:{surface}:{grid}"
                yield Request(kind, ["surface", "analyze", "--spec", spec[surface], *refine],
                              analyze_check(key, reference, fine), key=key)
            elif kind == "minimality":
                yield Request(kind, ["surface", "minimality", "--spec", spec[surface], *refine],
                              minimality_check(surface))
            elif kind == "volume":
                key = f"volume:{surface}:{grid}"
                yield Request(kind, ["surface", "volume", "--spec", spec[surface], *refine],
                              volume_check(key, reference), key=key)
            elif kind == "embed":
                key = f"embed:catenoid:{grid}"
                yield Request(kind, ["surface", "embed", "--spec", spec["catenoid"], *refine],
                              embed_check(key, reference), key=key)
            elif kind == "compare":
                script = _write(directory, "compare.json", transform_script(rng))
                both = spec["torus_fine"]
                yield Request(kind, ["surface", "compare", "--spec", both, "--spec2", both,
                                     "--transform", script], compare_check)


def warm_up_request(directory: str) -> Request:
    """A small untimed request that runs the package's lazy set-up."""
    spec = _write(directory, "warm-up.json", TORUS)
    return Request("warm-up", ["surface", "volume", "--spec", spec], lambda out: [])


# ---------------------------------------------------------------------------
# Element operations (in-process)
# ---------------------------------------------------------------------------

def element_requests(seed: int):
    """Endless stream of element requests of ELEMENT_ROUNDS rounds of the
    four operations each."""
    from laguerre import group, spheres

    rng = np.random.default_rng(seed)

    def roundtrip():
        # Criterion 10: sphere/plane -> coordinate -> element.
        if rng.random() < 0.5:
            el = spheres.Sphere(rng.standard_normal(3) * 4, rng.standard_normal() * 3)
            back = spheres.classify_coord(spheres.sphere_coord(el))
            err = max(float(np.abs(back.center - el.center).max()) / (1 + np.abs(el.center).max()),
                      abs(back.radius - el.radius) / (1 + abs(el.radius)))
        else:
            xi = rng.standard_normal(3)
            el = spheres.Plane(xi / np.linalg.norm(xi), rng.standard_normal() * 4)
            back = spheres.classify_coord(spheres.sphere_coord(el))
            err = max(float(np.abs(back.normal - el.normal).max()),
                      abs(back.offset - el.offset) / (1 + abs(el.offset)))
        return [] if err <= ELEMENT_TOL else [f"round trip error {err:.3e}"]

    def contact():
        # Criterion 10: oriented contact <=> vanishing tangential invariant.
        pair = sphere_pair(rng, rng.random() < 0.5)
        a, b = (spheres.Sphere(p, r) for p, r in pair)
        F = spheres.tangential_invariant(a, b)
        contact = spheres.oriented_contact(a, b, tol=CONTACT_TOL)
        return [] if contact_agrees(pair, contact, F) else ["contact and F = 0 disagree"]

    def transform():
        # Criterion 5: the tangential invariant survives a group element.
        T = group.random_transform(rng, 3, factors=3)
        pair = [spheres.Sphere(rng.standard_normal(3) * 2, rng.standard_normal())
                for _ in range(2)]
        moved = [spheres.classify_coord(group.act_on_coord(T, spheres.sphere_coord(s)))
                 for s in pair]
        F0 = spheres.tangential_invariant(*pair)
        err = abs(F0 - spheres.tangential_invariant(*moved)) / max(1.0, abs(F0))
        return [] if err <= ELEMENT_TOL else [f"tangential invariant moved by {err:.3e}"]

    def decompose():
        # Criterion 6: decompose then reconstruct.
        T = group.random_transform(rng, 3, factors=int(rng.integers(3, 7)))
        f = group.decompose(T)
        scale = max(1.0, float(np.abs(T.matrix).max()))
        err = float(np.abs(f.reconstruct() - T.matrix).max()) / scale
        return [] if err <= ELEMENT_TOL else [f"reconstruction error {err:.3e}"]

    ops = (roundtrip, contact, transform, decompose)
    while True:
        yield Request("batch", op=lambda: [msg for _ in range(ELEMENT_ROUNDS)
                                           for op in ops for msg in op()])

