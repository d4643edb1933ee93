import dataclasses

import numpy as np
import pytest

from laguerre import fd, patches
from laguerre.errors import DegenerateSurfaceError, UsageError

TORUS = {"builtin": "torus", "params": {"R": 2.0, "a": 1.0}}


def test_torus_patch_basics(torus_patch):
    assert torus_patch.space == "r3"
    assert torus_patch.x.shape == (65, 64, 3)
    assert torus_patch.axes.periodic == (False, True)
    # contact condition and unit normal are exact for analytic jets
    legendre = np.einsum("...ai,...i->...a", torus_patch.dx, torus_patch.xi)
    assert np.abs(legendre).max() < 1e-12
    assert np.abs(np.sum(torus_patch.xi ** 2, axis=-1) - 1).max() < 1e-12


def test_torus_closed_form_shape(torus_patch, torus_shape):
    iu, iv = 32, 0  # (u, v) = (0, 0)
    # principal curvatures -1/a and -cos u / (R + a cos u), sorted descending
    assert np.allclose(torus_shape.k[iu, iv], [-1.0 / 3.0, -1.0])
    assert np.allclose(torus_shape.radii[iu, iv], [-3.0, -1.0])
    assert torus_shape.r[iu, iv] == pytest.approx(-2.0)
    assert torus_shape.rho[iu, iv] == pytest.approx(np.sqrt(2.0))
    U = torus_patch.axes.meshgrid()[0]
    assert np.abs(torus_shape.rho - 2.0 / (np.sqrt(2) * np.cos(U))).max() < 1e-12
    assert np.abs(torus_shape.r - (-1.0 - np.cos(U) ** -1)).max() < 1e-12


def test_structure_relation_dxi(torus_patch, torus_shape):
    # e_i(xi) = -k_i e_i(x): equivalently d(xi) + S-contracted dx vanishes
    lhs = torus_patch.dxi + np.einsum("...gb,...gi->...bi", torus_patch.S, torus_patch.dx)
    assert np.abs(lhs).max() < 1e-12
    # and the analytic normal jets agree with finite differences of xi
    hs, per = torus_patch.axes.spacings, torus_patch.axes.periodic
    dxi_fd = fd.gradient(torus_patch.xi, 2, hs, per, 4)
    assert fd.nanmax_abs(torus_patch.dxi - dxi_fd) < 1e-4


def test_principal_directions_orthonormal(torus_patch, torus_shape):
    gram = np.einsum("...ia,...ab,...jb->...ij", torus_shape.dirs, torus_patch.I,
                     torus_shape.dirs)
    assert np.abs(gram - np.eye(2)).max() < 1e-8


def test_round_sphere_is_umbilic():
    with pytest.raises(DegenerateSurfaceError, match="umbilic"):
        patches.build_patch({"builtin": "sphere", "params": {"R": 1.5}})


def test_cylinder_has_flat_direction():
    with pytest.raises(DegenerateSurfaceError, match="curvature"):
        patches.build_patch({"builtin": "cylinder"})


def test_crossing_detection():
    with pytest.raises(DegenerateSurfaceError):
        patches.build_patch({
            "builtin": "translational_graph", "params": {"quad": [1.0, 0.5]},
            "grid": {"u": [0.013, 1.0, 64], "v": [-0.2, 0.2, 17]},
        })


def test_graph_curvatures_at_origin():
    p = patches.build_patch({
        "builtin": "translational_graph", "params": {"quad": [1.0, 0.5]},
        "grid": {"u": [-0.3, 0.3, 33], "v": [-0.3, 0.3, 33]},
    })
    sd = patches.shape_data(p)
    assert np.allclose(sd.k[16, 16], [2.0, 1.0], atol=1e-12)


def test_normal_flip():
    p = patches.build_patch({**TORUS, "normal": "inward"})
    sd = patches.shape_data(p)
    # flipping the normal negates every signed curvature
    assert np.allclose(sd.k[32, 0], [1.0, 1.0 / 3.0])


def test_torus4_closed_forms():
    p = patches.build_patch({"builtin": "torus4"})
    sd = patches.shape_data(p)
    U = p.axes.meshgrid()[0]
    k_sphere = -np.cos(U) / (2.0 + np.cos(U))
    assert fd.nanmax_abs(sd.k[..., 0] - k_sphere) < 1e-12
    assert fd.nanmax_abs(sd.k[..., 1] - k_sphere) < 1e-12
    assert fd.nanmax_abs(sd.k[..., 2] + 1.0) < 1e-12


def test_samples_roundtrip_matches_analytic(torus_patch, torus_shape):
    spec = {
        "samples": {"points": torus_patch.x.tolist(), "normals": torus_patch.xi.tolist()},
        "grid": {"u": [-np.pi / 3, np.pi / 3, 65], "v": [0.0, 2 * np.pi, 64],
                 "periodic": ["v"]},
    }
    p = patches.build_patch(spec)
    assert p.metadata["jets"] == "fd"
    sd = patches.shape_data(p)
    mask = np.isfinite(sd.k).all(axis=-1)
    assert fd.nanmax_abs(sd.k - np.where(mask[..., None], torus_shape.k, np.nan)) < 1e-5


def test_bad_specs():
    with pytest.raises(UsageError):
        patches.build_patch({"builtin": "moebius_strip"})
    with pytest.raises(UsageError):
        patches.build_patch({})
    with pytest.raises(UsageError):
        patches.build_patch({**TORUS, "normal": "sideways"})
    with pytest.raises(UsageError):
        patches.build_patch({"builtin": "saddle_r30", "normal": "inward"})
    with pytest.raises(UsageError):
        patches.build_patch({**TORUS, "grid": {"u": [0, 1], "v": [0, 1, 8]}})


def test_catenoid_zero_mean_curvature_oracle(catenoid_patch):
    S = catenoid_patch.S
    mean_k = np.trace(S, axis1=-2, axis2=-1) / 2.0
    assert np.abs(mean_k).max() < 1e-12


def test_saddle_constraints(saddle_patch):
    form = saddle_patch.form
    nu = patches.nu_vector(3)
    x_on_plane = np.sum(form * saddle_patch.x * nu, axis=-1)
    assert np.abs(x_on_plane).max() < 1e-14
    xi_null = np.sum(form * saddle_patch.xi * saddle_patch.xi, axis=-1)
    xi_nu = np.sum(form * saddle_patch.xi * nu, axis=-1)
    assert np.abs(xi_null).max() < 1e-14
    assert np.abs(xi_nu - 1.0).max() < 1e-14


def test_spacelike_plane_in_r31_is_flat():
    # a piece of a space-like plane in the Lorentzian space has S = 0
    n = 33
    u = np.linspace(-1, 1, n)
    U, V = np.meshgrid(u, u, indexing="ij")
    pts = np.stack([U, V, np.zeros_like(U)], axis=-1)
    nrm = np.zeros_like(pts)
    nrm[..., 2] = 1.0
    spec = {"space": "r31",
            "samples": {"points": pts.tolist(), "normals": nrm.tolist()},
            "grid": {"u": [-1, 1, n], "v": [-1, 1, n]}}
    p = patches.build_patch(spec)
    with pytest.raises(DegenerateSurfaceError, match="curvature"):
        patches.shape_data(p)


def test_validate_patch_names_degenerate_index(torus_patch):
    dx = torus_patch.dx.copy()
    dx[10, 20] = 0.0
    with pytest.raises(DegenerateSurfaceError,
                       match=r"not an immersion .* at grid index \(10, 20\)"):
        patches._validate_patch(dataclasses.replace(torus_patch, dx=dx))


def test_validate_samples_names_collapsed_row():
    # Unit sphere sampled across its north pole: the row u = pi/2 collapses
    # to one point, so d/dv vanishes there and the metric degenerates.
    nu, nv = 25, 32
    u = np.linspace(np.pi / 2 - 0.6, np.pi / 2 + 0.6, nu)
    v = np.arange(nv) * 2 * np.pi / nv
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.stack([np.cos(U) * np.cos(V), np.cos(U) * np.sin(V), np.sin(U)], axis=-1)
    pts[12] = [0.0, 0.0, 1.0]
    spec = {"samples": {"points": pts.tolist(), "normals": pts.tolist()},
            "grid": {"u": [u[0], u[-1], nu], "v": [0, 2 * np.pi, nv], "periodic": ["v"]}}
    with pytest.raises(DegenerateSurfaceError,
                       match=r"sampled patch is not an immersion .* at grid index \(12, 0\)"):
        patches.build_patch(spec)
