"""Command-line front end.

Commands:

    laguerre spheres contact  --a A.json --b B.json [--tol X]
    laguerre group compose    --transform S.json
    laguerre group decompose  --transform S.json
    laguerre surface analyze  --spec S.json [--out O] [--csv C] [...]
    laguerre surface minimality --spec S.json [...]
    laguerre surface volume   --spec S.json [...]
    laguerre surface compare  --spec A.json --spec2 B.json [--transform T]
    laguerre surface embed    --spec S.json [...]

All structured output is JSON (sorted keys, so identical runs produce
identical bytes); ``--csv`` dumps per-point fields for plotting.  Exit
codes: 0 success, 2 malformed input, 3 invalid group element,
4 degenerate surface, 5 tolerance breach under ``--strict``.

The environment variable LAGUERRE_LOG selects the logging level.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import logging
import os
import sys

import numpy as np

from . import fd, group, hypersurface, lorentz, minimality, patches, spaceforms, spheres
from .errors import (DegenerateSurfaceError, EmbeddingDomainError,
                     InsufficientInteriorError, InvalidElementError,
                     LaguerreError, ToleranceBreachError, UsageError)

log = logging.getLogger("laguerre")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GROUP = 3
EXIT_DEGENERATE = 4
EXIT_STRICT = 5

# glibc's mallopt parameters, and the 32 MiB ceiling of its mmap threshold.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process for the next grid field (glibc).

    A surface request allocates and frees tens of MB of grid fields.  By
    default glibc returns the free top of its heap to the system and maps
    an array above its adaptive mmap threshold afresh, so each new field
    faults its pages in again: about a quarter of the CPU time of a
    fine-grid request.  Fields of up to 32 MiB are taken from the heap and
    its free top stays mapped, to be reused, so the peak stays that of the
    live fields.  Setting either threshold pins the other, a 128 KiB mmap
    threshold being far worse than the adaptive one, so the trim threshold
    is raised only once the mmap threshold is set.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX):
        mallopt(M_TRIM_THRESHOLD, 1 << 30)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}") from exc


def _emit(obj: dict, out_path: str | None) -> None:
    """Write ``obj`` as standard JSON; arrays become lists, NaN and inf null."""
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    if out_path:
        tmp = out_path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, out_path)
    else:
        sys.stdout.write(text + "\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if not np.isfinite(v) else v
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _build_patch_from_args(args, spec: dict) -> patches.SurfacePatch:
    """Patch of a loaded spec, on a grid of the stencil order and refinement of ``args``."""
    return patches.build_patch(spec, args.fd_order, args.grid_refine)


def _euclidean_patch(args, spec: dict) -> patches.SurfacePatch:
    """Patch of a loaded spec in R^n: space-form patches are embedded.

    Euclidean patches skip ``embed_patch``, an identity on them, so layer
    traces count only real embeddings.
    """
    patch = _build_patch_from_args(args, spec)
    return patch if patch.space == "r3" else spaceforms.embed_patch(patch)


def cmd_spheres_contact(args) -> dict:
    a = spheres.element_from_json(_load_json(args.a))
    b = spheres.element_from_json(_load_json(args.b))
    contact = spheres.oriented_contact(a, b, tol=args.tol)
    F = None
    if isinstance(a, spheres.Sphere) and isinstance(b, spheres.Sphere):
        F = spheres.tangential_invariant(a, b)
    ga, gb = spheres.sphere_coord(a), spheres.sphere_coord(b)
    return {
        "contact": bool(contact),
        "F": F,
        "coords": [ga.vec, gb.vec],
        "inner": float(lorentz.inner(ga.vec, gb.vec)),
    }


def cmd_group_compose(args) -> dict:
    script = _load_json(args.transform)
    T = group.compose_script(script, n=args.n)
    blocks = group.to_blocks(T)
    return {
        "matrix": T.matrix,
        "blocks": {
            "A": blocks.A, "u": blocks.u, "v": blocks.v, "w": blocks.w,
            "a": blocks.a, "rho": blocks.rho,
        },
    }


def cmd_group_decompose(args) -> dict:
    script = _load_json(args.transform)
    T = group.compose_script(script, n=args.n)
    fact = group.decompose(T)
    err = float(np.abs(fact.reconstruct() - T.matrix).max())
    return {
        "epsilon": fact.epsilon,
        "t": fact.t,
        "s": fact.s,
        "sigma1": {"A": fact.A1, "a": fact.a1},
        "sigma2": {"A": fact.A2, "a": fact.a2},
        "reconstruction_error": err,
    }


def _extrema(eigs: np.ndarray) -> dict:
    """Per-component min and max over the grid, one reduction per component."""
    return {end: [getattr(c, end)() for c in eigs] for end in ("min", "max")}


# The InvariantField fields ``_analysis_payload`` reads (g, for its
# margins) or forms its fields from: B and the frame for the B spectrum,
# and the operands of the construction diagnostics.  The residual passes
# have formed them all, so a command that keeps only these after those
# passes forms the payload's fields once the passes' fields are gone.
PAYLOAD_FIELDS = ("g", "B", "vielbein", "deta", "N", "B_raw", "_LC")


def _analysis_payload(patch, fld, residuals) -> dict:
    # The spec's grid, which a sampled patch's window sits inside: g's
    # margin counts from its ends.
    axes = patch.spec_axes
    shape = patch.shape
    payload = {
        "space": patch.space,
        "n": patch.n,
        "grid": {
            "axes": [
                {"name": nm, "lo": lo, "hi": hi, "count": ct, "periodic": per}
                for nm, lo, hi, ct, per in zip(axes.names, axes.los, axes.his,
                                               axes.counts, axes.periodic)
            ],
        },
        "interior_margin": dict(zip(axes.names, fd.margins(fld.g, axes))),
        "shape": {
            "k_min": float(shape.k.min()),
            "k_max": float(shape.k.max()),
            "rho_min": float(shape.rho.min()),
            "rho_max": float(shape.rho.max()),
        },
        "s_eigenvalues": _extrema(fld.S_eigs),
        "b_eigenvalues": _extrema(fld.B_eigs),
        "residuals": residuals,
        "diagnostics": fld.diagnostics,
        "volume": hypersurface.laguerre_volume(patch),
    }
    if patch.n == 3:
        payload["volume_curvature_form"] = hypersurface.volume_via_curvature_quotient(patch)
    return payload


def _write_csv(path: str, patch, fld) -> None:
    cols = list(zip(patch.axes.names, patch.axes.meshgrid()))
    cols += [(f"x{i + 1}", c) for i, c in enumerate(patch.x)]
    cols += [(f"k{i + 1}", c) for i, c in enumerate(patch.shape.k)]
    cols += [("r", patch.shape.r), ("rho", patch.shape.rho)]
    cols += [(f"s_eig{i + 1}", c) for i, c in enumerate(fld.S_eigs)]
    header = ",".join(name for name, _ in cols)
    data = np.column_stack([arr.reshape(-1) for _, arr in cols])
    np.savetxt(path, data, delimiter=",", header=header, comments="")


def _strict_gate(residuals: dict, tol: float) -> None:
    worst = {k: v for k, v in residuals.items()
             if isinstance(v, float) and np.isfinite(v) and v > tol}
    if worst:
        names = ", ".join(f"{k}={v:.3e}" for k, v in sorted(worst.items()))
        raise ToleranceBreachError(f"strict mode: residuals above {tol:g}: {names}")


def cmd_surface_analyze(args) -> dict:
    patch = _euclidean_patch(args, _load_json(args.spec))
    fld = hypersurface.analyze(patch)
    residuals = hypersurface.structural_residuals(fld)
    fld.keep_only(*PAYLOAD_FIELDS)
    payload = _analysis_payload(patch, fld, residuals)
    if args.csv:
        _write_csv(args.csv, patch, fld)
    if args.strict:
        _strict_gate(residuals, args.tol)
    return payload


def cmd_surface_minimality(args) -> dict:
    fld = hypersurface.analyze(_euclidean_patch(args, _load_json(args.spec)))
    rep = minimality.minimality_report(fld, threshold=args.threshold)
    if args.strict and not rep.consistent:
        raise ToleranceBreachError("strict mode: the two minimality criteria disagree")
    return rep.to_json()


def cmd_surface_volume(args) -> dict:
    patch = _euclidean_patch(args, _load_json(args.spec))
    payload = {"volume": hypersurface.laguerre_volume(patch)}
    if patch.n == 3:
        payload["volume_curvature_form"] = hypersurface.volume_via_curvature_quotient(patch)
        rel = abs(payload["volume"] - payload["volume_curvature_form"]) / max(
            abs(payload["volume"]), 1e-300)
        payload["forms_relative_gap"] = rel
        if args.strict and rel > args.tol:
            raise ToleranceBreachError("strict mode: volume forms disagree")
    return payload


def cmd_surface_compare(args) -> dict:
    spec = _load_json(args.spec)
    p1 = _euclidean_patch(args, spec)
    # The invariance check compares a spec with its own image: one build.
    spec2 = _load_json(args.spec2)
    p2 = p1 if spec2 == spec else _euclidean_patch(args, spec2)
    if args.transform:
        T = group.compose_script(_load_json(args.transform))
        p2 = hypersurface.transform_patch(T, p2)
    # The first side is reduced to what compare_invariants reads before the
    # second is analyzed.
    f1 = hypersurface.analyze(p1)
    f1.keep_only(*hypersurface.COMPARED_FIELDS)
    payload = hypersurface.compare_invariants(f1, hypersurface.analyze(p2))
    if args.strict:
        _strict_gate(payload, args.tol)
    return payload


def cmd_surface_embed(args) -> dict:
    native = _build_patch_from_args(args, _load_json(args.spec))
    if native.space == "r3":
        raise UsageError("embed expects a space tag 'r31' or 'r30' in the spec")
    embedded = spaceforms.embed_patch(native)
    transfer = spaceforms.transfer_check(native, embedded)
    del native   # nothing reads the native patch after the transfer check
    fld = hypersurface.analyze(embedded)
    residuals = hypersurface.structural_residuals(fld)
    fld.keep_only(*PAYLOAD_FIELDS, *minimality.REPORT_FIELDS)
    rep = minimality.minimality_report(fld, threshold=args.threshold)
    payload = {
        "transfer": transfer,
        "analysis": _analysis_payload(embedded, fld, residuals),
        "minimality": rep.to_json(),
    }
    if args.strict:
        _strict_gate(transfer, args.tol)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laguerre",
        description="Oriented-sphere geometry: transformation group, "
                    "hypersurface invariants, space-form embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")

    sp = sub.add_parser("spheres", help="oriented contact of two elements")
    spsub = sp.add_subparsers(dest="subcommand", required=True)
    pc = spsub.add_parser("contact")
    pc.add_argument("--a", required=True)
    pc.add_argument("--b", required=True)
    common(pc)
    pc.add_argument("--tol", type=float, default=1e-9, help="contact tolerance")
    pc.set_defaults(func=cmd_spheres_contact)

    gp = sub.add_parser("group", help="compose or factor transforms")
    gpsub = gp.add_subparsers(dest="subcommand", required=True)
    gc = gpsub.add_parser("compose")
    gc.add_argument("--transform", required=True)
    gc.add_argument("--n", type=int, default=None,
                    help="base dimension when the script cannot reveal it")
    common(gc)
    gc.set_defaults(func=cmd_group_compose)
    gd = gpsub.add_parser("decompose")
    gd.add_argument("--transform", required=True)
    gd.add_argument("--n", type=int, default=None,
                    help="base dimension when the script cannot reveal it")
    common(gd)
    gd.set_defaults(func=cmd_group_decompose)

    su = sub.add_parser("surface", help="invariant analysis of surface patches")
    susub = su.add_subparsers(dest="subcommand", required=True)
    # The last entry is the default --tol of the command's --strict check;
    # minimality's --strict checks only that its two criteria agree.
    for name, func, extra, tol in [
        ("analyze", cmd_surface_analyze, ("csv",), 1e-3),
        ("minimality", cmd_surface_minimality, ("threshold",), None),
        ("volume", cmd_surface_volume, (), 1e-6),
        ("compare", cmd_surface_compare, ("spec2", "transform"), 1e-6),
        ("embed", cmd_surface_embed, ("threshold",), 1e-6),
    ]:
        p = susub.add_parser(name)
        p.add_argument("--spec", required=True)
        if "spec2" in extra:
            p.add_argument("--spec2", required=True)
        if "transform" in extra:
            p.add_argument("--transform", default=None)
        if "csv" in extra:
            p.add_argument("--csv", default=None, help="per-point field export")
        if "threshold" in extra:
            p.add_argument("--threshold", type=float, default=None,
                           help="minimality verdict threshold")
        common(p)
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol,
                           help="tolerance of the --strict check (default %(default)g)")
        p.add_argument("--strict", action="store_true",
                       help="exit 5 when a checked quantity exceeds the tolerance")
        p.add_argument("--fd-order", type=int, choices=(2, 4), default=4,
                       help="order of the central-difference stencil of the grid")
        p.add_argument("--grid-refine", type=int, default=1,
                       help="multiply every axis count by this factor")
        p.set_defaults(func=func)
    return parser


# The parser of ``main``: built on its first call, not at import, and
# shared by the calls that follow in one process.
_main_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    _keep_freed_heap()
    logging.basicConfig(level=os.environ.get("LAGUERRE_LOG", "WARNING").upper())
    args = _main_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except ToleranceBreachError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRICT
    except (DegenerateSurfaceError, InsufficientInteriorError, EmbeddingDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except InvalidElementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GROUP
    except (UsageError, LaguerreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit({**payload, "seed": args.seed}, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
