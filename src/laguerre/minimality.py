"""Criticality of the invariant volume: residual fields and verdicts.

A patch is critical for the invariant volume functional exactly when

    sum_{ij} (B_{ij,ij} - L_ij B_ij) = 0,

equivalently div C - <L, B> / (n - 2) = 0 (the two differ by the factor
n - 2 through the divergence identity for B).  B_{ij,ij} is div W with
W^b = g^{bd} (div B)_d, one Laplace-Beltrami of the div B the structure
identities read: no second covariant derivative of B is formed.  For
surfaces (n = 3) the same condition reads Delta_{III} r = 0 with the
Laplacian of the third fundamental form applied to the mean curvature
radius, and the bridge

    Delta_{III} r = rho^3 * (-div C + <L, B>)

ties the two computations together end to end; its relative defect is
reported as a cross-check because it exercises Y, N, eta, B, L, C and both
discrete Laplacians at once.  When both sides are below the verdict
threshold, both criteria read zero and the quotient would be rounding
noise over rounding noise, so the cross-check is null.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fd, lorentz
from .errors import UsageError
from .hypersurface import InvariantField
from .patches import SurfacePatch


# The InvariantField fields ``minimality_report`` reads, directly or through
# ``el_residual`` and ``eta_laplacian_diagnostics``.
REPORT_FIELDS = ("ginv", "sqrt_det", "dY", "deta", "N", "vielbein", "C_frame",
                 "divB", "divC", "LB")


@dataclass(eq=False)
class MinimalityReport:
    verdict: str                     # "minimal" | "non-minimal"
    threshold: float
    max_el_residual: float           # sum form
    max_el_div_form: float           # divergence form
    max_el_scaled: float             # rho^3-scaled divergence form (verdict input)
    el_forms_discrepancy: float
    max_laplacian_r: float | None    # n = 3 only
    crosscheck: float | None         # bridge identity defect, relative; None below threshold
    lap_verdict: str | None
    consistent: bool
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "threshold": self.threshold,
            "max_el_residual": self.max_el_residual,
            "max_el_div_form": self.max_el_div_form,
            "max_el_scaled": self.max_el_scaled,
            "el_forms_discrepancy": self.el_forms_discrepancy,
            "max_laplacian_r": self.max_laplacian_r,
            "crosscheck_lap_r": self.crosscheck,
            "consistent": self.consistent,
            "eta_laplacian": self.diagnostics,
        }


def el_residual(fld: InvariantField):
    """Pointwise residuals of both forms of the criticality equation.

    Returns (sum_form, div_form): sum_{ij}(B_{ij,ij} - L_ij B_ij) and
    div C - <L, B>/(n - 2).  The first equals (n - 2) times the second up
    to discretization error.
    """
    crop = fld.crop
    div_divB = fd.laplace_beltrami(fld.divB, fld.ginv, fld.sqrt_det, fld.patch.axes)
    sum_form = np.subtract(*crop(div_divB, fld.LB))
    divC, LB = crop(fld.divC, fld.LB)
    div_form = divC - LB / (fld.patch.n - 2)
    return sum_form, div_form


def third_form_laplacian_r(patch: SurfacePatch, r: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami of the third fundamental form applied to a grid
    field ``r``, the mean curvature radius in the criterion (surfaces only)."""
    if patch.n != 3:
        raise UsageError("the third-form Laplacian criterion is stated for surfaces")
    IIIinv = fd.grid_inv(patch.third_form)
    sqrt_det = np.sqrt(fd.grid_det(patch.third_form))
    return fd.laplace_beltrami(fd.gradient(r, patch.axes), IIIinv, sqrt_det, patch.axes)


def eta_laplacian_diagnostics(fld: InvariantField) -> dict:
    """Frame components of the Laplacian of the sphere-coordinate field eta.

    The expansion of Delta eta has no N or eta component, a wp component
    equal to 1, tangent components (n - 3) C_i and a Y component equal to
    -div C + <L, B>; each defect is a free end-to-end consistency check.
    """
    lift, n, crop = fld.patch.lift, fld.patch.n, fld.crop
    lap_eta = fd.laplace_beltrami(fld.deta, fld.ginv, fld.sqrt_det, fld.patch.axes)
    inner = lorentz.inner

    wp_comp = -inner(*crop(lap_eta, lift.eta))
    dY, lap_eta_c = crop(fld.dY, lap_eta)
    tangent = fd.contract_last(dY, lap_eta_c, lorentz.signature(n))
    # Convert <lap eta, d_a Y> to frame components through the vielbein.
    tangent_frame = fd.contract_last(*crop(fld.vielbein, tangent))
    tangent_frame, C_frame = crop(tangent_frame, fld.C_frame)
    y_comp = -inner(*crop(lap_eta, fld.N))
    divC, LB = crop(fld.divC, fld.LB)
    wp_vec = lorentz.wp(n)

    return {
        "wp_component_minus_1": fd.max_abs(wp_comp - 1.0),
        "tangent_vs_C": fd.max_abs(tangent_frame - (n - 3) * C_frame),
        "y_component_vs_el": fd.max_abs(np.subtract(*crop(y_comp, -divC + LB))),
        "eta_component": fd.max_abs(inner(lap_eta, wp_vec)),
        "n_component": fd.max_abs(inner(*crop(lap_eta, lift.Y))),
    }


def default_threshold(fld: InvariantField) -> float:
    """Scale-aware verdict threshold: 1e-3 times the patch-median of rho^3.

    The bridge identity says the natural scale of Delta_{III} r is rho^3
    times the criticality residual, so rho^3 converts the dimensionless
    1e-3 into the residual's units.
    """
    rho3 = np.median(fld.patch.shape.rho ** 3)
    return 1e-3 * float(max(rho3, 1e-12))


def minimality_report(fld: InvariantField,
                      threshold: float | None = None) -> MinimalityReport:
    """Assemble the verdict and all cross-checks for one analyzed patch."""
    if threshold is None:
        threshold = default_threshold(fld)

    crop = fld.crop
    sum_form, div_form = el_residual(fld)
    n = fld.patch.n
    max_sum = fd.max_abs(sum_form)
    max_div = fd.max_abs(div_form)
    discrepancy = fd.max_abs(np.subtract(*crop(sum_form, (n - 2) * div_form)))

    # Verdict on the pointwise rho^3-scaled divergence form, whose units
    # match the threshold (and, for surfaces, the third-form Laplacian).
    rho3 = fld.patch.shape.rho ** 3
    scaled_el = fd.max_abs(np.multiply(*crop(rho3, div_form)))
    verdict = "minimal" if scaled_el <= threshold else "non-minimal"

    lap_r = None
    lap_verdict = None
    crosscheck = None
    if n == 3:
        lap = third_form_laplacian_r(fld.patch, fld.patch.shape.r)
        lap_r = fd.max_abs(lap)
        lap_verdict = "minimal" if lap_r <= threshold else "non-minimal"
        divC, LB = crop(fld.divC, fld.LB)
        bridge_rhs = np.multiply(*crop(rho3, -divC + LB))
        scale = max(fd.max_abs(lap), fd.max_abs(bridge_rhs))
        if scale > max(threshold, 1e-12):
            crosscheck = fd.max_abs(np.subtract(*crop(lap, bridge_rhs))) / scale

    diagnostics = eta_laplacian_diagnostics(fld)
    consistent = lap_verdict is None or lap_verdict == verdict
    return MinimalityReport(
        verdict=verdict,
        threshold=threshold,
        max_el_residual=max_sum,
        max_el_div_form=max_div,
        max_el_scaled=scaled_el,
        el_forms_discrepancy=discrepancy,
        max_laplacian_r=lap_r,
        crosscheck=crosscheck,
        lap_verdict=lap_verdict,
        consistent=consistent,
        diagnostics=diagnostics,
    )
