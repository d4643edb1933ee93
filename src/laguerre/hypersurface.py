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

together with the shape operator rho^{-1}(S^{-1} - r id), whose spectrum
(r_i - r) / rho is read off the curvature radii.  Everything built from
derivatives of grid fields uses cascaded central differences of the order
the patch grid carries.  Each field is stored on its window, the part of
the grid where it is defined: every cascade level drops the stencil radius
from both ends of each non-periodic axis (g and B have margin r, Gamma, N
and div B 2r, L, C, the curvature tensors and B_ab,ab 3r, nabla C 4r), and a
pointwise formula runs on its operands cut to their common window
(``fd.crop``).  Patch-level fields (the shape data, S_op and its spectrum)
cover the patch's whole grid, which for a sampled patch is already the
window of its jets (``patches``), so no field holds a NaN.

``analyze`` only guards: it checks the space, the grid's interior and the
positive definiteness of g, so every command fails at the same point with
the same error.  Every field of ``InvariantField`` -- g and its inverse,
Gamma, N, the frame, B, L, C, the spectra, the curvature tensors, the
covariant derivatives and div B -- is computed on first read and cached, so
a command pays only for the fields it reports, and each field once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import fd, lorentz, patches
from .errors import DegenerateSurfaceError, UsageError
from .group import LaguerreTransform
from .patches import SurfacePatch
from .spheres import contact_from_pencil, contact_pencil, coord_tail

# Cascade depth of the deepest residual (divergence of C), used for the
# up-front interior check: Y -> g -> Gamma/lap -> N -> C -> div C.
MAX_CASCADE_LEVELS = 4


@dataclass(eq=False)
class InvariantField:
    """The invariant fields of one patch.

    The only stored field is the patch; every invariant is a cached
    property computed on first read from the fields it needs, so a command
    pays only for what it reads.
    """

    patch: SurfacePatch

    @cached_property
    def dY(self) -> np.ndarray:
        return fd.gradient(self.patch.lift.Y, self.patch.axes)

    @cached_property
    def g(self) -> np.ndarray:
        """<d_a Y, d_b Y>, exactly symmetric: a gram of one stack with itself."""
        return fd.gram(self.dY, self.dY, lorentz.signature(self.patch.n))

    @cached_property
    def minors(self) -> list:
        """Leading minors of g; the last is det g."""
        return fd.leading_minors(self.g)

    @cached_property
    def ginv(self) -> np.ndarray:
        return fd.grid_inv(self.g)

    @cached_property
    def sqrt_det(self) -> np.ndarray:
        return np.sqrt(self.minors[-1])

    @cached_property
    def Gamma(self) -> np.ndarray:
        return fd.christoffel(self.g, self.patch.axes, self.ginv)

    @cached_property
    def lapY(self) -> np.ndarray:
        return fd.laplace_beltrami(self.dY, self.ginv, self.sqrt_det, self.patch.axes)

    @cached_property
    def lap_norm(self) -> np.ndarray:
        """<Delta Y, Delta Y>."""
        return lorentz.inner(self.lapY, self.lapY)

    def crop(self, *fields) -> tuple:
        """The fields cut to their common window."""
        return fd.crop(self.patch.ngrid, *fields)

    @cached_property
    def N(self) -> np.ndarray:
        """The null vector conjugate to Y: <N, N> = 0, <Y, N> = -1."""
        nm1 = self.patch.n - 1
        lapY, lap_norm, Y = self.crop(self.lapY, self.lap_norm, self.patch.lift.Y)
        return lapY / nm1 + (lap_norm / (2.0 * nm1 * nm1))[..., None] * Y

    @cached_property
    def deta(self) -> np.ndarray:
        return fd.gradient(self.patch.lift.eta, self.patch.axes)

    @cached_property
    def B_raw(self) -> np.ndarray:
        """<d_a eta, d_b Y> before symmetrization."""
        return fd.gram(self.deta, self.dY, lorentz.signature(self.patch.n))

    @cached_property
    def B(self) -> np.ndarray:
        return 0.5 * (self.B_raw + np.swapaxes(self.B_raw, -1, -2))

    @cached_property
    def _LC(self) -> tuple:
        """(L, C) from one gradient of N, which is not kept once both are formed."""
        sig = lorentz.signature(self.patch.n)
        dN, dY, eta = self.crop(fd.gradient(self.N, self.patch.axes), self.dY, self.patch.lift.eta)
        L = fd.gram(dN, dY, sig)
        return 0.5 * (L + np.swapaxes(L, -1, -2)), -fd.contract_last(dN, eta * sig)

    @property
    def L(self) -> np.ndarray:
        return self._LC[0]

    @property
    def C(self) -> np.ndarray:
        return self._LC[1]

    @cached_property
    def vielbein(self) -> np.ndarray:
        """Rows of the orthonormal frame E_i in the coordinate basis: Gram-Schmidt
        on the coordinate directions, i.e. the inverse Cholesky factor of g."""
        return fd.inverse_cholesky(self.g)

    @cached_property
    def EY(self) -> np.ndarray:
        """The frame E_i(Y), (*G, m, n+3), orthonormal for the ambient product."""
        return self.vielbein @ self.dY

    @cached_property
    def B_frame(self) -> np.ndarray:
        return fd.cholesky_reduce(self.B, self.vielbein)

    @cached_property
    def C_frame(self) -> np.ndarray:
        return fd.contract_last(*self.crop(self.vielbein, self.C))

    @cached_property
    def B_eigs(self) -> np.ndarray:
        """Eigenvalues of B in the orthonormal frame, descending."""
        return fd.grid_eigvalsh(self.B_frame)[..., ::-1]

    @cached_property
    def S_op(self) -> np.ndarray:
        """The invariant shape operator rho^{-1} (S^{-1} - r id)."""
        shape = self.patch.shape
        Sinv = fd.grid_inv(self.patch.S)
        eye = np.eye(self.patch.ngrid)
        return (Sinv - shape.r[..., None, None] * eye) / shape.rho[..., None, None]

    @cached_property
    def S_eigs(self) -> np.ndarray:
        """Eigenvalues of S_op, descending: (r_i - r) / rho, since S^{-1} has
        the curvature radii r_i for eigenvalues."""
        shape = self.patch.shape
        eigs = [(radius - shape.r) / shape.rho for radius in fd.components(shape.radii)]
        return np.stack(fd.ascending(eigs)[::-1], axis=-1)

    @cached_property
    def riemann(self) -> np.ndarray:
        return fd.riemann_tensor(self.g, self.Gamma, self.patch.axes)

    @cached_property
    def ricci(self) -> np.ndarray:
        return fd.ricci_tensor(*self.crop(self.riemann, self.ginv))

    @cached_property
    def scalar(self) -> np.ndarray:
        return fd.scalar_curvature(*self.crop(self.ricci, self.ginv))

    @cached_property
    def diagnostics(self) -> dict:
        """Defects of three identities the construction satisfies exactly."""
        sig = lorentz.signature(self.patch.n)
        deta, N = self.crop(self.deta, self.N)
        C_dual = fd.contract_last(deta, N * sig)
        return {
            "raw_B_asymmetry": fd.max_abs(self.B_raw - np.swapaxes(self.B_raw, -1, -2)),
            "C_dual_defect": fd.max_abs(np.subtract(*self.crop(self.C, C_dual))),
            "g_vs_rho2_III": fd.max_abs(np.subtract(*self.crop(self.g, self.patch.g_exact))),
        }

    @cached_property
    def DB(self) -> np.ndarray:
        """nabla_c B_ab, slots (c, a, b)."""
        return fd.cov_d_tensor2(self.B, self.Gamma, self.patch.axes)

    @cached_property
    def DC(self) -> np.ndarray:
        """nabla_c C_a, slots (c, a)."""
        return fd.cov_d_covector(self.C, self.Gamma, self.patch.axes)

    @cached_property
    def divB(self) -> np.ndarray:
        """(div B)_b = g^ca nabla_c B_ab."""
        return np.einsum("...ca,...cab->...b", *self.crop(self.ginv, self.DB))

    @cached_property
    def divC(self) -> np.ndarray:
        """div C = g^ca nabla_c C_a."""
        return np.einsum("...ab,...ab->...", *self.crop(self.ginv, self.DC))

    @cached_property
    def LB(self) -> np.ndarray:
        """<L, B> = g^ac g^bd L_ab B_cd."""
        return fd.metric_pairing(*self.crop(self.L, self.B, self.ginv))


def analyze(patch: SurfacePatch) -> InvariantField:
    """The invariant fields of one patch, with the stencil of its grid.

    Every command fails here, at the same point with the same error: the
    patch must be Euclidean, its grid must hold the deepest cascade, and g
    must be positive definite.  The fields themselves follow on read.
    """
    if patch.space != "r3":
        raise UsageError("analyze needs an r3 patch; embed space forms first")
    fd.require_interior(patch.axes, MAX_CASCADE_LEVELS, patch.spec_axes)
    fld = InvariantField(patch)
    idx = fd.nonpositive_index(fld.g, fld.minors)
    if idx is not None:
        margin = fd.margins(fld.g, patch.axes)
        idx = patches.grid_index(patch, [i + m for i, m in zip(idx, margin)])
        raise DegenerateSurfaceError(
            f"invariant metric is not positive definite at grid index {idx}")
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


def _structure_identities(fld: InvariantField, flat) -> dict:
    """Residuals of the structure-equation identities, each residual tensor
    reduced by ``flat`` as soon as it is formed, so no two of them are held
    at once.

    Covariant derivatives are taken in parameter coordinates with the
    Christoffel symbols of g; each identity is evaluated as a coordinate
    tensor equation, which is equivalent to its orthonormal-frame form.
    """
    n, crop = fld.patch.n, fld.crop
    g, ginv, B, L, C = fld.g, fld.ginv, fld.B, fld.L, fld.C

    DL = fd.cov_d_tensor2(L, fld.Gamma, fld.patch.axes)
    DB, DC = fld.DB, fld.DC

    def minus(a, b):
        """a - b on the common window of the two terms."""
        return np.subtract(*crop(a, b))

    res = {}
    res["l_codazzi"] = flat(DL - np.swapaxes(DL, -3, -1))
    B3, ginv3, L3 = crop(B, ginv, L)
    BL = B3 @ ginv3 @ L3
    res["c_exchange"] = flat(minus(np.swapaxes(DC, -1, -2) - DC, BL - np.swapaxes(BL, -1, -2)))
    C3, g3 = crop(C, g)
    codazzi_rhs = (
        np.einsum("...b,...ac->...cab", C3, g3)
        - np.einsum("...c,...ab->...cab", C3, g3)
    )
    res["b_codazzi"] = flat(minus(DB - np.einsum("...cab->...bac", DB), codazzi_rhs))

    res["gauss"] = flat(minus(fld.riemann, gauss_rhs(L3, g3)))

    trB = np.einsum("...ab,...ab->...", ginv, B)
    res["b_trace"] = flat(trB)
    B2 = fd.metric_pairing(B, B, ginv)
    res["b_sqnorm"] = flat(B2 - 1.0)
    trL = np.einsum("...ab,...ab->...", ginv3, L3)
    res["l_trace_vs_lap"] = flat(np.add(*crop(trL, fld.lap_norm / (2.0 * (n - 1)))))

    res["b_divergence"] = flat(minus(fld.divB, (n - 2) * C))

    ricci, L3, trL, g3 = crop(fld.ricci, L, trL, g)
    res["ricci_vs_l"] = flat(ricci + (n - 3) * L3 + trL[..., None, None] * g3)
    res["scalar_vs_lap"] = flat(minus(fld.scalar, (n - 2) / (n - 1) * fld.lap_norm))
    return res


def structural_residual_fields(fld: InvariantField) -> dict:
    """Pointwise residual fields of the structure-equation identities.

    Component axes of each residual are flattened so every entry of the
    dict is a grid scalar field (absolute value already applied).
    """
    m = fld.patch.ngrid
    return _structure_identities(fld, lambda resid: fd.component_max_abs(resid, m))


def frame_residuals(fld: InvariantField) -> dict:
    """Max-abs defects of the pairings of the frame {Y, N, E_i(Y), eta, wp}."""
    inner = lorentz.inner
    crop = fld.crop
    Y, eta, N, EY = fld.patch.lift.Y, fld.patch.lift.eta, fld.N, fld.EY
    wp = lorentz.wp(fld.patch.n)
    sig = lorentz.signature(fld.patch.n)
    return {
        "Y_null": fd.max_abs(inner(Y, Y)),
        "N_null": fd.max_abs(inner(N, N)),
        "YN_pairing": fd.max_abs(inner(*crop(Y, N)) + 1.0),
        "EY_orthonormal": fd.max_abs(fd.gram(EY, EY, sig) - np.eye(EY.shape[-2])),
        "Y_EY": fd.max_abs(fd.contract_last(*crop(EY, Y * sig))),
        "N_EY": fd.max_abs(fd.contract_last(*crop(EY, N * sig))),
        "eta_null": fd.max_abs(inner(eta, eta)),
        "eta_wp_pairing": fd.max_abs(inner(eta, wp) + 1.0),
        "eta_Y": fd.max_abs(inner(eta, Y)),
        "eta_EY": fd.max_abs(fd.contract_last(*crop(EY, eta * sig))),
        "Y_wp": fd.max_abs(inner(Y, wp)),
        "N_eta": fd.max_abs(inner(*crop(N, eta))),
        "N_wp": fd.max_abs(inner(N, wp)),
    }


def structural_residuals(fld: InvariantField) -> dict:
    """Max-abs residuals of the structure identities plus frame pairings.

    Each structure residual is ``max_abs`` of its field in
    ``structural_residual_fields``, taken from the residual tensor in one
    whole-array reduction.
    """
    res = _structure_identities(fld, fd.max_abs)
    res.update({f"frame_{k}": v for k, v in frame_residuals(fld).items()})
    return res


def laguerre_volume(patch: SurfacePatch) -> float:
    """Total volume of the invariant metric, integrated over the patch.

    The integrand rho^{n-1} / (r_1 ... r_{n-1}) times the Euclidean area
    element is pointwise exact; the quadrature is the only approximation.
    """
    shape = patch.shape
    radii_product = reduce(np.multiply, fd.components(shape.radii))
    integrand = shape.rho ** (patch.n - 1) / radii_product * patch.area_element
    return fd.integrate(integrand, patch.axes)


def volume_via_curvature_quotient(patch: SurfacePatch) -> float:
    """Surface-case (n = 3) volume through 2 * (H^2 - K) / K."""
    if patch.n != 3:
        raise UsageError("the mean/Gauss curvature form of the volume is for surfaces")
    shape = patch.shape
    k1, k2 = shape.k[..., 0], shape.k[..., 1]
    H = 0.5 * (k1 + k2)
    K = k1 * k2
    integrand = 2.0 * (H * H - K) / K * patch.area_element
    return fd.integrate(integrand, patch.axes)


def transform_patch(T: LaguerreTransform, patch: SurfacePatch) -> SurfacePatch:
    """Image of a patch under a group element, with exact jets.

    The pencil jets of the patch are mapped through T and the image patch
    is read off them (``patch_from_pencil``), so no accuracy is lost
    relative to the source patch.  The image keeps the source's jets
    provenance, and with it the source's screen tolerances.
    """
    if patch.space != "r3":
        raise UsageError("only Euclidean patches transform under the group")
    if T.n != patch.n:
        raise UsageError("transform and patch have different base dimensions")
    # The derivative jets of the pencil members are their tails: entries 0
    # and 1 are a multiple of wp, which T fixes, so they add nothing to
    # entries 2: of the image.  The values keep their full coordinates.
    M = T.matrix
    h1, h2 = ([(value @ M)[..., 2:], *(j @ M[2:, 2:] for j in tails)]
              for value, tails in zip(contact_pencil(patch.x, patch.xi), jet_tails(patch)))
    try:
        return patch_from_pencil(patch, h1, h2, transformed=True)
    except DegenerateSurfaceError as exc:
        # Curvature sphere i goes to (gamma1 + r_i gamma2) T, whose last entry
        # is the image radius r'_i = a + r_i b.  One that takes both signs on
        # the grid passes through zero between neighbouring grid points.
        radii = (h1[0][..., -1:] + patch.shape.radii * h2[0][..., -1:]).reshape(-1, patch.n - 1)
        signs = np.sign(radii)
        flips = signs.min(axis=0) != signs.max(axis=0)
        if not flips.any():
            raise
        point, i = np.unravel_index(np.argmin(np.where(flips, np.abs(radii), np.inf)),
                                    radii.shape)
        idx = patches.grid_index(patch, np.unravel_index(point, patch.axes.shape))
        raise DegenerateSurfaceError(
            f"principal radius {i + 1} of the image passes through zero (|r'| = "
            f"{abs(radii[point, i]):.1e} at grid index {idx}): the image is a front "
            "with a cusp, not an immersed patch") from exc


def jet_tails(patch: SurfacePatch):
    """Entries 2: of the first and second parameter derivatives of the
    pencil members gamma1 and gamma2 along a patch, in the layout of its
    space: the tails of (dx, d2x) and of (dxi, d2xi).  The radius entry is
    constant along the patch, so its jets vanish."""
    return ([coord_tail(j, 0.0, patch.space) for j in (patch.dx, patch.d2x)],
            [coord_tail(j, 0.0, patch.space) for j in (patch.dxi, patch.d2xi)])


def patch_from_pencil(patch: SurfacePatch, h1, h2, **metadata) -> SurfacePatch:
    """Euclidean patch read off a pencil along ``patch``, with exact jets.

    h1 and h2 are the jets (value, first, second derivatives) of entries 2:
    of the point-sphere and hyperplane members.  x and xi come from
    ``spheres.contact_from_pencil``, which guards the read-off; with (A, a)
    and (B, b) the middle block and the last entry, x = A - (a/b) B and
    xi = B / b carry their derivatives as quotient jets.
    """
    x, xi = contact_from_pencil(h1[0], h2[0], lambda idx: patches.grid_index(patch, idx))
    (dA, d2A), (B, dB, d2B) = ([j[..., :-1] for j in h] for h in (h1[1:], h2))
    da, d2a = (j[..., -1:] for j in h1[1:])
    b, db, d2b = (j[..., -1] for j in h2)
    dxi, d2xi = _quotient_jets(xi, dB, d2B, b, db, d2b)
    # q = a / b is the same quotient on a single component.
    q = h1[0][..., -1] / b
    dq, d2q = (j[..., 0] for j in _quotient_jets(q[..., None], da, d2a, b, db, d2b))
    dx = dA - dq[..., None] * B[..., None, :] - q[..., None, None] * dB
    d2x = (
        d2A
        - d2q[..., None] * B[..., None, None, :]
        - dq[..., :, None, None] * dB[..., None, :, :]
        - dq[..., None, :, None] * dB[..., :, None, :]
        - q[..., None, None, None] * d2B
    )
    return patches.make_patch("r3", patch.axes, x, dx, d2x, xi,
                              patches.given_normal_jets(dxi, d2xi),
                              {**patch.metadata, **metadata})


def _quotient_jets(w, dv, d2v, b, db, d2b):
    """First and second jets of the vector field w = v / b, given w."""
    dw = (dv - w[..., None, :] * db[..., :, None]) / b[..., None, None]
    d2w = (
        d2v
        - dw[..., None, :, :] * db[..., :, None, None]
        - dw[..., :, None, :] * db[..., None, :, None]
        - w[..., None, None, :] * d2b[..., :, :, None]
    ) / b[..., None, None, None]
    return dw, d2w


def compare_invariants(f1: InvariantField, f2: InvariantField) -> dict:
    """Pointwise deviations of g, the shape-operator spectrum and the
    second-fundamental-form spectrum between two patches on the same spec
    grid, over the common window of each pair of fields."""
    if f1.patch.spec_axes != f2.patch.spec_axes:
        raise UsageError("patches must share grid topology and parameter alignment")

    def deviation(a, b):
        return fd.max_abs(np.subtract(*fd.crop(f1.patch.ngrid, a, b)))

    return {
        "max_g_deviation": deviation(f1.g, f2.g),
        "max_s_eig_deviation": deviation(f1.S_eigs, f2.S_eigs),
        "max_b_eig_deviation": deviation(f1.B_eigs, f2.B_eigs),
    }
