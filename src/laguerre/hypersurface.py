"""Laguerre invariants of a Euclidean hypersurface patch.

The pipeline lifts a patch x: M -> R^n with unit normal xi to the light
cone of R^{n+3}_2:

    y   = (x.xi, -x.xi, xi, 1)           scaled position on the cone,
    Y   = rho * y                         rho^2 = sum_i (r_i - r)^2,
    eta = point_sphere(x) + r * y         coordinate of the sphere of
                                          radius -r centered at x + r xi.

The metric g = <dY, dY> = rho^2 <dxi, dxi> is invariant under the whole
group.  From Y the pipeline produces the conjugate null vector N out of
the Laplace-Beltrami image of Y, an orthonormal tangent frame E_i(Y) by
Gram-Schmidt on the coordinate derivatives, and the tensor fields

    B_ab = <d_a eta, d_b Y>,  L_ab = <d_a N, d_b Y>,  C_a = -<d_a N, eta>,

together with the shape operator rho^{-1}(S^{-1} - r id).  Everything
built from derivatives of grid fields uses cascaded central differences;
the valid interior shrinks by the stencil radius per cascade level on
non-periodic axes and reductions are NaN-aware.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from . import fd, lorentz, patches
from .errors import DegenerateSurfaceError, UsageError
from .group import LaguerreTransform
from .patches import SurfacePatch
from .spheres import contact_pencil, coord_tail

# Cascade depth of the deepest residual (divergence of C), used for the
# up-front interior check: Y -> g -> Gamma/lap -> N -> C -> div C.
MAX_CASCADE_LEVELS = 4


@dataclass(eq=False)
class LaguerreLift:
    """Pointwise-exact cone fields of a patch."""

    y: np.ndarray
    Y: np.ndarray
    eta: np.ndarray
    rho: np.ndarray
    r: np.ndarray


@dataclass(eq=False)
class LaguerreFrame:
    """Moving frame {Y, N, E_i(Y), eta, wp} along the patch."""

    Y: np.ndarray
    N: np.ndarray
    EY: np.ndarray      # (*G, m, n+3), orthonormal for the ambient product
    eta: np.ndarray
    wp: np.ndarray

    def pairing_residuals(self) -> dict:
        """Max-abs defects of all the null-frame pairings."""
        inner = lorentz.inner
        m = self.EY.shape[-2]
        sig = lorentz.signature(self.Y.shape[-1] - 3)
        gram = fd.gram(self.EY, self.EY, sig)
        eye = np.eye(m)
        res = {
            "Y_null": fd.nanmax_abs(inner(self.Y, self.Y)),
            "N_null": fd.nanmax_abs(inner(self.N, self.N)),
            "YN_pairing": fd.nanmax_abs(inner(self.Y, self.N) + 1.0),
            "EY_orthonormal": fd.nanmax_abs(gram - eye),
            "Y_EY": fd.nanmax_abs(fd.contract_last(self.EY, self.Y * sig)),
            "N_EY": fd.nanmax_abs(fd.contract_last(self.EY, self.N * sig)),
            "eta_null": fd.nanmax_abs(inner(self.eta, self.eta)),
            "eta_wp_pairing": fd.nanmax_abs(inner(self.eta, self.wp) + 1.0),
            "eta_Y": fd.nanmax_abs(inner(self.eta, self.Y)),
            "eta_EY": fd.nanmax_abs(fd.contract_last(self.EY, self.eta * sig)),
            "Y_wp": fd.nanmax_abs(inner(self.Y, self.wp)),
            "N_eta": fd.nanmax_abs(inner(self.N, self.eta)),
            "N_wp": fd.nanmax_abs(inner(self.N, self.wp)),
        }
        return res


@dataclass(eq=False)
class InvariantField:
    """Everything the pipeline computes on one patch."""

    patch: SurfacePatch
    lift: LaguerreLift
    order: int
    g: np.ndarray
    ginv: np.ndarray
    sqrt_det: np.ndarray
    Gamma: np.ndarray
    dY: np.ndarray
    lapY: np.ndarray
    lap_norm: np.ndarray          # <Delta Y, Delta Y>
    N: np.ndarray
    B: np.ndarray                 # coordinate components
    L: np.ndarray
    C: np.ndarray
    vielbein: np.ndarray          # rows of E_i in the coordinate basis
    B_frame: np.ndarray
    L_frame: np.ndarray
    C_frame: np.ndarray
    B_eigs: np.ndarray            # descending
    S_op: np.ndarray
    S_eigs: np.ndarray            # descending
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray
    g_exact: np.ndarray           # rho^2 * <dxi, dxi>, pointwise exact
    residuals: dict = dataclass_field(default_factory=dict)
    diagnostics: dict = dataclass_field(default_factory=dict)

    @property
    def frame(self) -> LaguerreFrame:
        EY = self.vielbein @ self.dY
        return LaguerreFrame(
            Y=self.lift.Y, N=self.N, EY=EY, eta=self.lift.eta,
            wp=lorentz.wp(self.patch.n),
        )

    def cov_d(self, kernel, T: np.ndarray) -> np.ndarray:
        """Covariant derivative of T by ``kernel`` (an ``fd.cov_d_*``) on this grid."""
        axes = self.patch.axes
        return kernel(T, self.Gamma, axes.ndim, axes.spacings, axes.periodic, self.order)

    @cached_property
    def DB(self) -> np.ndarray:
        """nabla_c B_ab, slots (c, a, b)."""
        return self.cov_d(fd.cov_d_tensor2, self.B)

    @cached_property
    def DC(self) -> np.ndarray:
        """nabla_c C_a, slots (c, a)."""
        return self.cov_d(fd.cov_d_covector, self.C)

    @cached_property
    def divC(self) -> np.ndarray:
        """div C = g^ca nabla_c C_a."""
        return np.einsum("...ab,...ab->...", self.ginv, self.DC)

    @cached_property
    def LB(self) -> np.ndarray:
        """<L, B> = g^ac g^bd L_ab B_cd."""
        return fd.metric_pairing(self.L, self.B, self.ginv)


def laguerre_lift(patch: SurfacePatch) -> LaguerreLift:
    """Light-cone position Y = rho gamma2 and mean-curvature-sphere
    coordinate eta = gamma1 + r gamma2, built from the zeroth-order pencil
    (gamma1, gamma2) in the layout of the patch's own space form."""
    shape = patch.shape
    g1, y = contact_pencil(patch.x, patch.xi, patch.form, patch.space)
    Y = shape.rho[..., None] * y
    eta = g1 + shape.r[..., None] * y
    return LaguerreLift(y=y, Y=Y, eta=eta, rho=shape.rho, r=shape.r)


def laguerre_metric(Y: np.ndarray, axes: patches.GridAxes, order: int = 4) -> np.ndarray:
    """Metric components <d_a Y, d_b Y> in parameter coordinates."""
    dY = fd.gradient(Y, axes.ndim, axes.spacings, axes.periodic, order)
    return fd.gram(dY, dY, lorentz.signature(Y.shape[-1] - 3))


def analyze(patch: SurfacePatch, order: int = 4) -> InvariantField:
    """Run the full invariant pipeline on one patch."""
    if patch.space != "r3":
        raise UsageError("analyze needs an r3 patch; embed space forms first")
    axes = patch.axes
    m = axes.ndim
    hs, per = axes.spacings, axes.periodic
    fd.require_interior(axes.counts, per, order, MAX_CASCADE_LEVELS)

    shape = patch.shape
    lift = laguerre_lift(patch)
    sig = lorentz.signature(patch.n)

    dY = fd.gradient(lift.Y, m, hs, per, order)
    g = fd.gram(dY, dY, sig)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    if fd.nonpositive_index(g) is not None:
        raise DegenerateSurfaceError("invariant metric is not positive definite on the grid")
    ginv = fd.grid_inv(g)
    det = fd.grid_det(g)
    sqrt_det = np.sqrt(np.where(np.isfinite(det) & (det > 0), det, np.nan))
    Gamma = fd.christoffel(g, m, hs, per, order, ginv=ginv)

    lapY = fd.laplace_beltrami(lift.Y, m, ginv, sqrt_det, hs, per, order)
    lap_norm = lorentz.inner(lapY, lapY)
    nm1 = patch.n - 1
    N = lapY / nm1 + (lap_norm / (2.0 * nm1 * nm1))[..., None] * lift.Y

    dN = fd.gradient(N, m, hs, per, order)
    deta = fd.gradient(lift.eta, m, hs, per, order)

    B_raw = fd.gram(deta, dY, sig)
    B = 0.5 * (B_raw + np.swapaxes(B_raw, -1, -2))
    L = fd.gram(dN, dY, sig)
    L = 0.5 * (L + np.swapaxes(L, -1, -2))
    C = -fd.contract_last(dN, lift.eta * sig)

    # Orthonormal frame by Gram-Schmidt on the coordinate directions, i.e.
    # the inverse Cholesky factor of g.
    vielbein, B_frame = fd.cholesky_reduce(B, g)
    L_frame = vielbein @ L @ np.swapaxes(vielbein, -1, -2)
    C_frame = fd.contract_last(vielbein, C)
    B_eigs = fd.grid_eigvalsh(B_frame)[..., ::-1]

    Sinv = fd.grid_inv(shape.S)
    eye = np.eye(m)
    S_op = (Sinv - shape.r[..., None, None] * eye) / shape.rho[..., None, None]
    S_eigs = fd.selfadjoint_eigvals(S_op, shape.I)[..., ::-1]

    riem = fd.riemann_tensor(g, Gamma, m, hs, per, order)
    ricci = fd.ricci_tensor(riem, ginv)
    scalar = fd.scalar_curvature(ricci, ginv)

    g_exact = (shape.rho ** 2)[..., None, None] * patch.third_form

    fld = InvariantField(
        patch=patch, lift=lift, order=order,
        g=g, ginv=ginv, sqrt_det=sqrt_det, Gamma=Gamma,
        dY=dY, lapY=lapY, lap_norm=lap_norm, N=N,
        B=B, L=L, C=C,
        vielbein=vielbein, B_frame=B_frame, L_frame=L_frame, C_frame=C_frame,
        B_eigs=B_eigs, S_op=S_op, S_eigs=S_eigs,
        riemann=riem, ricci=ricci, scalar=scalar, g_exact=g_exact,
    )
    fld.diagnostics["raw_B_asymmetry"] = fd.nanmax_abs(B_raw - np.swapaxes(B_raw, -1, -2))
    C_dual = fd.contract_last(deta, N * sig)
    fld.diagnostics["C_dual_defect"] = fd.nanmax_abs(C - C_dual)
    fld.diagnostics["g_vs_rho2_III"] = fd.nanmax_abs(g - g_exact)
    return fld


def gauss_rhs(L: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Right-hand side L_bc g_ad + L_ad g_bc - L_ac g_bd - L_bd g_ac of the
    Gauss equation, slots (a, b, c, d)."""
    # Every term is a slot permutation of one outer product Lg_abcd = L_ab g_cd.
    Lg = L[..., :, :, None, None] * g[..., None, None, :, :]
    return (
        np.einsum("...bcad->...abcd", Lg)
        + np.einsum("...adbc->...abcd", Lg)
        - np.einsum("...acbd->...abcd", Lg)
        - np.einsum("...bdac->...abcd", Lg)
    )


def structural_residual_fields(fld: InvariantField) -> dict:
    """Pointwise residual fields of the structure-equation identities.

    Covariant derivatives are taken in parameter coordinates with the
    Christoffel symbols of g; each identity is evaluated as a coordinate
    tensor equation, which is equivalent to its orthonormal-frame form.
    Component axes of each residual are flattened so every entry of the
    dict is a grid scalar field (absolute value already applied).
    """
    m = fld.patch.axes.ndim
    g, ginv = fld.g, fld.ginv
    n = fld.patch.n

    DL = fld.cov_d(fd.cov_d_tensor2, fld.L)
    DB, DC = fld.DB, fld.DC

    def flat(resid):
        return fd.component_max_abs(resid, m)

    res = {}
    res["l_codazzi"] = flat(DL - np.swapaxes(DL, -3, -1))
    BL = fld.B @ ginv @ fld.L
    res["c_exchange"] = flat(
        np.swapaxes(DC, -1, -2) - DC - (BL - np.swapaxes(BL, -1, -2))
    )
    codazzi_rhs = (
        np.einsum("...b,...ac->...cab", fld.C, g)
        - np.einsum("...c,...ab->...cab", fld.C, g)
    )
    res["b_codazzi"] = flat(DB - np.einsum("...cab->...bac", DB) - codazzi_rhs)

    res["gauss"] = flat(fld.riemann - gauss_rhs(fld.L, g))

    trB = np.einsum("...ab,...ab->...", ginv, fld.B)
    res["b_trace"] = flat(trB)
    B2 = fd.metric_pairing(fld.B, fld.B, ginv)
    res["b_sqnorm"] = flat(B2 - 1.0)
    trL = np.einsum("...ab,...ab->...", ginv, fld.L)
    res["l_trace_vs_lap"] = flat(trL + fld.lap_norm / (2.0 * (n - 1)))

    divB = np.einsum("...ca,...cab->...b", ginv, DB)
    res["b_divergence"] = flat(divB - (n - 2) * fld.C)

    res["ricci_vs_l"] = flat(fld.ricci + (n - 3) * fld.L + trL[..., None, None] * g)
    res["scalar_vs_lap"] = flat(fld.scalar - (n - 2) / (n - 1) * fld.lap_norm)
    return res


def structural_residuals(fld: InvariantField) -> dict:
    """Max-abs residuals of the structure identities plus frame pairings."""
    res = {k: fd.nanmax_abs(v) for k, v in structural_residual_fields(fld).items()}
    res.update({f"frame_{k}": v for k, v in fld.frame.pairing_residuals().items()})
    fld.residuals.update(res)
    return res


def laguerre_volume(patch: SurfacePatch) -> float:
    """Total volume of the invariant metric, integrated over the patch.

    The integrand rho^{n-1} / (r_1 ... r_{n-1}) times the Euclidean area
    element is pointwise exact; the quadrature is the only approximation.
    """
    shape = patch.shape
    dM = np.sqrt(fd.grid_det(shape.I))
    integrand = shape.rho ** (patch.n - 1) / np.prod(shape.radii, axis=-1) * dM
    return fd.integrate(integrand, patch.axes.spacings, patch.axes.periodic)


def volume_via_curvature_quotient(patch: SurfacePatch) -> float:
    """Surface-case (n = 3) volume through 2 * (H^2 - K) / K."""
    if patch.n != 3:
        raise UsageError("the mean/Gauss curvature form of the volume is for surfaces")
    shape = patch.shape
    k1, k2 = shape.k[..., 0], shape.k[..., 1]
    H = 0.5 * (k1 + k2)
    K = k1 * k2
    dM = np.sqrt(fd.grid_det(shape.I))
    integrand = 2.0 * (H * H - K) / K * dM
    return fd.integrate(integrand, patch.axes.spacings, patch.axes.periodic)


def transform_patch(T: LaguerreTransform, patch: SurfacePatch) -> SurfacePatch:
    """Image of a patch under a group element, with exact jets.

    The pencil jets of the patch are mapped through T and the image patch
    is read off them (``patch_from_pencil``), so no accuracy is lost
    relative to the source patch.
    """
    if patch.space != "r3":
        raise UsageError("only Euclidean patches transform under the group")
    if T.n != patch.n:
        raise UsageError("transform and patch have different base dimensions")
    h1, h2 = ([j @ T.matrix for j in member] for member in pencil_jets(patch))
    if np.min(np.abs(h2[0][..., -1])) <= 1e-12 * np.abs(h2[0]).max():
        raise UsageError("transformed pencil degenerates on this patch")
    return patch_from_pencil(patch, [j[..., 2:] for j in h1], [j[..., 2:] for j in h2],
                             jets="chain", transformed=True)


def pencil_jets(patch: SurfacePatch):
    """Jets (value, first and second parameter derivatives) of the pencil
    members gamma1 and gamma2 along a patch, in the layout of its space."""
    x, dx, d2x = patch.x, patch.dx, patch.d2x
    xi, dxi, d2xi = patch.xi, patch.dxi, patch.d2xi
    w = patch.form
    xw, xiw, dxw = x * w, xi * w, dx * w
    # d(<x,x>/2) = <x,dx> and d<x,xi> = <dx,xi> + <x,dxi>, then once more.
    xdx = np.einsum("...i,...ai->...a", xw, dx)
    d2xx = np.einsum("...ai,...bi->...ab", dxw, dx) + np.einsum("...i,...abi->...ab", xw, d2x)
    dxxi = np.einsum("...ai,...i->...a", dx, xiw) + np.einsum("...i,...ai->...a", xw, dxi)
    P = np.einsum("...ai,...bi->...ab", dxw, dxi)
    d2xxi = (np.einsum("...abi,...i->...ab", d2x, xiw) + P + np.swapaxes(P, -1, -2)
             + np.einsum("...i,...abi->...ab", xw, d2xi))

    def member(s, v):
        # The radius entry is constant along the patch, so its jets vanish.
        return np.concatenate([s[..., None], -s[..., None], coord_tail(v, 0.0, patch.space)],
                              axis=-1)

    g1, g2 = contact_pencil(x, xi, w, patch.space)
    return ((g1, member(xdx, dx), member(d2xx, d2x)),
            (g2, member(dxxi, dxi), member(d2xxi, d2xi)))


def patch_from_pencil(patch: SurfacePatch, h1, h2, **metadata) -> SurfacePatch:
    """Euclidean patch read off a pencil along ``patch``, with exact jets.

    h1 and h2 are the jets (value, first, second derivatives) of entries 2:
    of the point-sphere and hyperplane members.  With (A, a) and (B, b) the
    middle block and the last entry, xi = B / b and x = A - (a/b) B, as in
    ``spheres.contact_from_pencil``; the caller guards b against zero.
    """
    (A, dA, d2A), (B, dB, d2B) = ([j[..., :-1] for j in h] for h in (h1, h2))
    a, da, d2a = (j[..., -1:] for j in h1)
    b, db, d2b = (j[..., -1] for j in h2)
    xi, dxi, d2xi = _quotient_jets(B, dB, d2B, b, db, d2b)
    # q = a / b is the same quotient on a single component.
    q, dq, d2q = (j[..., 0] for j in _quotient_jets(a, da, d2a, b, db, d2b))
    x = A - q[..., None] * B
    dx = dA - dq[..., None] * B[..., None, :] - q[..., None, None] * dB
    d2x = (
        d2A
        - d2q[..., None] * B[..., None, None, :]
        - dq[..., :, None, None] * dB[..., None, :, :]
        - dq[..., None, :, None] * dB[..., :, None, :]
        - q[..., None, None, None] * d2B
    )
    new = SurfacePatch(
        space="r3", n=patch.n, axes=patch.axes,
        x=x, dx=dx, d2x=d2x, xi=xi, dxi=dxi, d2xi=d2xi,
        metadata={**patch.metadata, **metadata},
    )
    patches._validate_patch(new)
    return new


def _quotient_jets(v, dv, d2v, b, db, d2b):
    """Jets of the vector field w = v / b from the jets of v and b."""
    w = v / b[..., None]
    dw = (dv - w[..., None, :] * db[..., :, None]) / b[..., None, None]
    d2w = (
        d2v
        - dw[..., None, :, :] * db[..., :, None, None]
        - dw[..., :, None, :] * db[..., None, :, None]
        - w[..., None, None, :] * d2b[..., :, :, None]
    ) / b[..., None, None, None]
    return w, dw, d2w


def compare_invariants(f1: InvariantField, f2: InvariantField) -> dict:
    """Pointwise deviations of g, the shape-operator spectrum and the
    second-fundamental-form spectrum between two aligned patches."""
    if f1.patch.axes != f2.patch.axes:
        raise UsageError("patches must share grid topology and parameter alignment")
    return {
        "max_g_deviation": fd.nanmax_abs(f1.g - f2.g),
        "max_s_eig_deviation": fd.nanmax_abs(f1.S_eigs - f2.S_eigs),
        "max_b_eig_deviation": fd.nanmax_abs(f1.B_eigs - f2.B_eigs),
    }
