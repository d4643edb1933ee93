import dataclasses
import itertools

import numpy as np
import pytest

from laguerre import fd, lorentz, patches
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
    dxi_fd = fd.gradient(torus_patch.xi, torus_patch.axes)
    assert fd.max_abs(np.subtract(*fd.crop(2, torus_patch.dxi, dxi_fd))) < 1e-4


@pytest.mark.parametrize("builtin", ["torus", "torus4"])
def test_principal_curvatures_are_roots_of_the_pencil(builtin):
    # det(II - k I) = det(I) prod_j (k_j - k) vanishes at each k_i; the bound
    # is relative to det(I) max|k|^m, the size of its terms.
    p = patches.build_patch({"builtin": builtin})
    k, m = p.shape.k, p.ngrid
    pencil = p.II[..., None, :, :] - k[..., None, None] * p.I[..., None, :, :]
    scale = np.linalg.det(p.I)[..., None] * np.abs(k).max(axis=-1, keepdims=True) ** m
    assert (np.abs(np.linalg.det(pencil)) <= 1e-12 * scale).all()


def test_four_axis_graph_takes_the_lapack_branch(monkeypatch):
    # n = 5: the 4x4 blocks exceed fd.CLOSED_FORM_MAX, so every general
    # inverse, determinant, Cholesky factor and spectrum of this build runs
    # through LAPACK; only the inverse of the Cholesky factor (forward
    # substitution, for every m) does not.  At the centre the graph's
    # curvatures are 2 quad.
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a.shape) or eigvalsh(a))
    quad = [1.0, 0.7, 0.45, 0.25]
    grid = dict.fromkeys("uvws", [-0.25, 0.25, 9])
    p = patches.build_patch({"builtin": "translational_graph", "params": {"quad": quad},
                             "grid": grid})
    assert spectra == [(9, 9, 9, 9, 4, 4)]
    assert np.abs(p.shape.k[4, 4, 4, 4] - 2.0 * np.array(quad)).max() <= 1e-12
    spectrum = fd.selfadjoint_eigvals(p.S, p.I)
    assert np.abs(spectrum - np.sort(p.shape.k, axis=-1)).max() <= 1e-12


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
    assert fd.max_abs(sd.k[..., 0] - k_sphere) < 1e-12
    assert fd.max_abs(sd.k[..., 1] - k_sphere) < 1e-12
    assert fd.max_abs(sd.k[..., 2] + 1.0) < 1e-12


def test_samples_roundtrip_matches_analytic(torus_patch, torus_shape):
    spec = {
        "samples": {"points": torus_patch.x.tolist(), "normals": torus_patch.xi.tolist()},
        "grid": {"u": [-np.pi / 3, np.pi / 3, 65], "v": [0.0, 2 * np.pi, 64],
                 "periodic": ["v"]},
    }
    p = patches.build_patch(spec)
    assert p.metadata["jets"] == "fd"
    # The patch is the window of its second jets, 4 u-rows inside each end.
    assert (p.axes.counts, p.spec_axes.counts) == ((57, 64), (65, 64))
    assert np.array_equal(p.x, torus_patch.x[4:-4])
    sd = patches.shape_data(p)
    assert fd.max_abs(np.subtract(*fd.crop(2, sd.k, torus_shape.k))) < 1e-5


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
    nu = lorentz.nu(3)
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
    with pytest.raises(DegenerateSurfaceError, match="curvature"):
        patches.build_patch(spec)


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
                       match=r"not an immersion .* at grid index \(12, 0\)"):
        patches.build_patch(spec)


def sampled_torus(nu=25, nv=24):
    """Spec of the outward torus sampled on a nu x nv grid, and the builtin
    patch it samples."""
    grid = {"u": [-1.0, 1.0, nu], "v": [0.0, 2 * np.pi, nv], "periodic": ["v"]}
    p = patches.build_patch({"builtin": "torus", "grid": grid})
    return {"samples": {"points": p.x.tolist(), "normals": p.xi.tolist()}, "grid": grid}, p


def test_sampled_contact_error_names_grid_index():
    spec, p = sampled_torus()
    # Tilt the normal at (10, 5) towards dx/du, keeping it a unit vector.
    t = p.dx[10, 5, 0] / np.linalg.norm(p.dx[10, 5, 0])
    spec["samples"]["normals"][10][5] = (np.cos(0.1) * p.xi[10, 5] + np.sin(0.1) * t).tolist()
    with pytest.raises(DegenerateSurfaceError,
                       match=r"contact condition .* at grid index \(10, 5\)"):
        patches.build_patch(spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["points", "normals"])
def test_sampled_input_must_be_finite(field, bad):
    spec, _ = sampled_torus()
    spec["samples"][field][10][5][0] = bad
    with pytest.raises(UsageError, match=r"not finite at grid index \(10, 5\)"):
        patches.build_patch(spec)


# (unit-square defect, patch is accepted) per jets provenance: the torus has
# scale 3, so the normal screen allows 3e-9 for exact jets and 3e-8 for fd.
@pytest.mark.parametrize("jets, defect, accepted", [
    ("analytic", 1e-9, True), ("analytic", 1e-8, False), ("chain", 1e-8, False),
    ("fd", 1e-8, True), ("fd", 1e-6, False),
])
def test_screen_tolerance_follows_jets_provenance(torus_patch, jets, defect, accepted):
    p = torus_patch
    xi = p.xi * np.sqrt(1.0 + defect)
    args = ("r3", p.axes, p.x, p.dx, p.d2x, xi, patches.given_normal_jets(p.dxi, p.d2xi),
            {"jets": jets})
    if accepted:
        assert patches.make_patch(*args).n == 3
    else:
        with pytest.raises(DegenerateSurfaceError, match=r"not normalized at grid index"):
            patches.make_patch(*args)


def test_refine_multiplies_the_parsed_counts():
    assert patches.build_patch({"builtin": "torus"}, refine=2).axes.counts == (130, 128)
    grid = {"u": [-0.3, 0.3, 17], "v": [-0.3, 0.3, 9]}
    p = patches.build_patch({"builtin": "translational_graph", "grid": grid}, refine=3)
    assert p.axes.counts == (51, 27)
    with pytest.raises(UsageError, match="fixed grid"):
        patches.build_patch(sampled_torus()[0], refine=2)


def test_minimal_oracle_names_grid_index(monkeypatch):
    # The torus advertised as minimal: |H| peaks on the outer equator u = 0
    # (row 32), equal along it up to rounding.
    entry = {**patches.BUILTINS["torus"], "zero_mean_curvature": True}
    monkeypatch.setitem(patches.BUILTINS, "minimal_torus", entry)
    with pytest.raises(DegenerateSurfaceError,
                       match=r"mean curvature oracle .* \(grid index \(32, \d+\)\)"):
        patches.build_patch({"builtin": "minimal_torus"})


@pytest.mark.parametrize("m, order", [(1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_symmetric_jet_fills_every_permutation(m, order):
    rng = np.random.default_rng(10 * m + order)
    x = rng.standard_normal((4,) * m + (3,))
    keys = list(itertools.combinations_with_replacement(range(m), order))
    table = {key: rng.standard_normal(x.shape) for key in keys[::2]}   # every other key absent
    jet = patches._symmetric_jet(table, x, order)
    assert jet.shape == x.shape[:-1] + (m,) * order + (3,)
    grid = (slice(None),) * m
    for idx in itertools.product(range(m), repeat=order):
        key = tuple(sorted(idx))
        expected = table[key] if key in table else np.zeros(x.shape)
        assert np.array_equal(jet[grid + idx], expected), idx
