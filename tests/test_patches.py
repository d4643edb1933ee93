import dataclasses
import itertools

import numpy as np
import pytest

from conftest import LAPACK, grid_leading, symmetric_jet
from laguerre import fd, lorentz, patches
from laguerre.errors import DegenerateSurfaceError, UsageError

TORUS = {"builtin": "torus", "params": {"R": 2.0, "a": 1.0}}


def test_torus_patch_basics(torus_patch):
    assert torus_patch.space == "r3"
    assert torus_patch.x.shape == (3, 65, 64)
    assert torus_patch.axes.periodic == (False, True)
    # contact condition and unit normal are exact for analytic jets
    legendre = np.einsum("ai...,i...->a...", torus_patch.dx, torus_patch.xi)
    assert np.abs(legendre).max() < 1e-12
    assert np.abs(np.sum(torus_patch.xi ** 2, axis=0) - 1).max() < 1e-12


def test_torus_closed_form_shape(torus_patch, torus_shape):
    iu, iv = 32, 0  # (u, v) = (0, 0)
    # principal curvatures -1/a and -cos u / (R + a cos u), sorted descending
    assert np.allclose(torus_shape.k[:, iu, iv], [-1.0 / 3.0, -1.0])
    assert np.allclose(torus_shape.radii[:, iu, iv], [-3.0, -1.0])
    assert torus_shape.r[iu, iv] == pytest.approx(-2.0)
    assert torus_shape.rho[iu, iv] == pytest.approx(np.sqrt(2.0))
    U = torus_patch.axes.meshgrid()[0]
    assert np.abs(torus_shape.rho - 2.0 / (np.sqrt(2) * np.cos(U))).max() < 1e-12
    assert np.abs(torus_shape.r - (-1.0 - np.cos(U) ** -1)).max() < 1e-12


def test_structure_relation_dxi(torus_patch, torus_shape):
    # e_i(xi) = -k_i e_i(x): equivalently d(xi) + S-contracted dx vanishes
    lhs = torus_patch.dxi + np.einsum("gb...,gi...->bi...", torus_patch.S, torus_patch.dx)
    assert np.abs(lhs).max() < 1e-12
    # and the analytic normal jets agree with finite differences of xi
    dxi_fd = fd.gradient(torus_patch.xi, torus_patch.axes)
    assert fd.max_abs(np.subtract(*fd.crop(2, torus_patch.dxi, dxi_fd))) < 1e-4


@pytest.mark.parametrize("builtin", ["torus", "torus4"])
def test_principal_curvatures_are_roots_of_the_pencil(builtin):
    # det(II - k I) = det(I) prod_j (k_j - k) vanishes at each k_i; the bound
    # is relative to det(I) max|k|^m, the size of its terms.
    p = patches.build_patch({"builtin": builtin})
    k, m = grid_leading(p.shape.k, 1), p.ngrid
    II, I = grid_leading(p.II, 2), grid_leading(p.I, 2)
    pencil = II[..., None, :, :] - k[..., None, None] * I[..., None, :, :]
    scale = np.linalg.det(I)[..., None] * np.abs(k).max(axis=-1, keepdims=True) ** m
    assert (np.abs(np.linalg.det(pencil)) <= 1e-12 * scale).all()


def test_four_axis_graph_stays_off_lapack(monkeypatch):
    # n = 5: the inverses, determinants, Cholesky factors and spectra of the
    # 4x4 blocks are formed elementwise over the grid, as for m <= 3, so the
    # build makes no batched LAPACK call.  At the centre the graph's
    # curvatures are 2 quad.
    calls = []
    for name in LAPACK:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, name=name, fn=fn, **k: calls.append(name) or fn(*a, **k))
    quad = [1.0, 0.7, 0.45, 0.25]
    grid = dict.fromkeys("uvws", [-0.25, 0.25, 9])
    p = patches.build_patch({"builtin": "translational_graph", "params": {"quad": quad},
                             "grid": grid})
    assert calls == []
    assert np.abs(p.shape.k[:, 4, 4, 4, 4] - 2.0 * np.array(quad)).max() <= 1e-12
    spectrum = fd.selfadjoint_eigvals(p.S, p.I)
    assert np.abs(spectrum - np.sort(p.shape.k, axis=0)).max() <= 1e-12


def test_round_sphere_is_umbilic():
    with pytest.raises(DegenerateSurfaceError, match="umbilic"):
        patches.build_patch({"builtin": "sphere", "params": {"R": 1.5}})


def test_cylinder_has_flat_direction():
    with pytest.raises(DegenerateSurfaceError, match="curvature"):
        patches.build_patch({"builtin": "cylinder"})


def test_crossing_detection():
    # k_u = 2 / (1 + 4 u^2)^(3/2) crosses k_v near u = 0.38: the sorted gap
    # kinks there, where it also collapses.
    with pytest.raises(DegenerateSurfaceError) as err:
        patches.build_patch({
            "builtin": "translational_graph", "params": {"quad": [1.0, 0.5]},
            "grid": {"u": [0.013, 1.0, 64], "v": [-0.2, 0.2, 17]},
        })
    assert str(err.value) == ("principal curvature crossing near grid index (31, 7); "
                              "re-grid to keep curvature labels separated")


def test_collapsed_gap_without_a_spike_is_no_crossing():
    # The same graph stopped short of the crossing: the gap narrows smoothly
    # to under half its median at the u = 0.37 end, with no kink.
    p = patches.build_patch({
        "builtin": "translational_graph", "params": {"quad": [1.0, 0.5]},
        "grid": {"u": [0.0, 0.37, 38], "v": [-0.2, 0.2, 17]},
    })
    gap = p.shape.k[0] - p.shape.k[1]
    assert (gap[1:-1, 1:-1] < patches.CROSSING_GAP_FRACTION * np.median(gap)).any()


FORM_SPECS = {**{name: {"builtin": name} for name in patches.BUILTINS},
              "torus inward": {"builtin": "torus", "normal": "inward"},
              "graph 3 axes": {"builtin": "translational_graph",
                               "params": {"quad": [1.0, 0.7, 0.4], "cubic": [0.1, 0.2, -0.1]},
                               "grid": dict.fromkeys("uvw", [-0.25, 0.25, 11])}}


@pytest.mark.parametrize("name", FORM_SPECS)
def test_builtin_forms_are_the_assembled_jets(name, monkeypatch):
    # The build reads the jet tables entry by entry: dx is the first-order
    # table and II the distinct second-order entries against the normal,
    # bit for bit <d2x, xi> of the assembled symmetric second jets.  The
    # screen is off, so the umbilic sphere and the flat cylinder build too.
    monkeypatch.setattr(patches, "_validate_patch", lambda patch: None)
    spec = FORM_SPECS[name]
    p = patches.build_patch(spec)
    x, xi, first, second = patches._builtin_jets(spec["builtin"], spec.get("params", {}), p.axes)
    xi = -xi if spec.get("normal") == "inward" else xi
    assert np.array_equal(p.dx, symmetric_jet(first, x, 1))
    assert np.array_equal(p.II, patches.second_fundamental(symmetric_jet(second, x, 2), xi, p.form))


def test_graph_curvatures_at_origin():
    p = patches.build_patch({
        "builtin": "translational_graph", "params": {"quad": [1.0, 0.5]},
        "grid": {"u": [-0.3, 0.3, 33], "v": [-0.3, 0.3, 33]},
    })
    sd = patches.shape_data(p)
    assert np.allclose(sd.k[:, 16, 16], [2.0, 1.0], atol=1e-12)


def test_normal_flip():
    p = patches.build_patch({**TORUS, "normal": "inward"})
    sd = patches.shape_data(p)
    # flipping the normal negates every signed curvature
    assert np.allclose(sd.k[:, 32, 0], [1.0, 1.0 / 3.0])


def test_torus4_closed_forms():
    p = patches.build_patch({"builtin": "torus4"})
    sd = patches.shape_data(p)
    U = p.axes.meshgrid()[0]
    k_sphere = -np.cos(U) / (2.0 + np.cos(U))
    assert fd.max_abs(sd.k[0] - k_sphere) < 1e-12
    assert fd.max_abs(sd.k[1] - k_sphere) < 1e-12
    assert fd.max_abs(sd.k[2] + 1.0) < 1e-12


def test_samples_roundtrip_matches_analytic(torus_patch, torus_shape):
    spec = {
        "samples": {"points": grid_leading(torus_patch.x, 1).tolist(),
                    "normals": grid_leading(torus_patch.xi, 1).tolist()},
        "grid": {"u": [-np.pi / 3, np.pi / 3, 65], "v": [0.0, 2 * np.pi, 64],
                 "periodic": ["v"]},
    }
    p = patches.build_patch(spec)
    assert p.jets == "fd"
    # The patch is the window of its second jets, 4 u-rows inside each end.
    assert (p.axes.counts, p.spec_axes.counts) == ((57, 64), (65, 64))
    assert np.array_equal(p.x, torus_patch.x[:, 4:-4])
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
    mean_k = (S[0, 0] + S[1, 1]) / 2.0
    assert np.abs(mean_k).max() < 1e-12


def test_saddle_constraints(saddle_patch):
    form = saddle_patch.form
    nu = lorentz.nu(3)
    x, xi = grid_leading(saddle_patch.x, 1), grid_leading(saddle_patch.xi, 1)
    x_on_plane = np.sum(form * x * nu, axis=-1)
    assert np.abs(x_on_plane).max() < 1e-14
    xi_null = np.sum(form * xi * xi, axis=-1)
    xi_nu = np.sum(form * xi * nu, axis=-1)
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
    dx[..., 10, 20] = 0.0
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
    return {"samples": {"points": grid_leading(p.x, 1).tolist(),
                        "normals": grid_leading(p.xi, 1).tolist()}, "grid": grid}, p


def test_sampled_build_differences_x_xi_and_dx_once_each(monkeypatch):
    # dx, dxi and the second x-jets that II reads: three gradients, and the
    # patch keeps the given dxi and no second jet.
    spec, _ = sampled_torus()
    calls = []
    gradient = fd.gradient
    monkeypatch.setattr(fd, "gradient",
                        lambda f, *args: calls.append(f.ndim) or gradient(f, *args))
    p = patches.build_patch(spec)
    assert calls == [3, 3, 4]
    assert p.given_dxi is not None
    assert not any(isinstance(v, np.ndarray) and v.ndim > p.ngrid + 2 for v in vars(p).values())


def test_the_chain_drops_each_link_once_the_next_is_formed():
    # No command reads S after dxi, or dxi after III: each goes once the next
    # link is formed, and is formed again, with the same bits, if read.  A
    # given dxi is stored and stays.
    p = patches.build_patch({"builtin": "torus"})
    S = p.S.copy()
    dxi = p.dxi.copy()
    assert "S" not in vars(p)
    p.third_form
    assert "dxi" not in vars(p)
    assert np.array_equal(p.S, S) and np.array_equal(p.dxi, dxi)
    sampled = patches.build_patch(sampled_torus()[0])
    sampled.third_form
    assert sampled.dxi is sampled.given_dxi


def test_sampled_contact_error_names_grid_index():
    spec, p = sampled_torus()
    # Tilt the normal at (10, 5) towards dx/du, keeping it a unit vector.
    t = p.dx[0, :, 10, 5] / np.linalg.norm(p.dx[0, :, 10, 5])
    spec["samples"]["normals"][10][5] = (np.cos(0.1) * p.xi[:, 10, 5] + np.sin(0.1) * t).tolist()
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
    ("analytic", 1e-9, True), ("analytic", 1e-8, False),
    ("fd", 1e-8, True), ("fd", 1e-6, False),
])
def test_screen_tolerance_follows_jets_provenance(torus_patch, jets, defect, accepted):
    p = torus_patch
    xi = p.xi * np.sqrt(1.0 + defect)
    args = ("r3", p.axes, p.x, p.dx, xi, p.II, None, jets)
    if accepted:
        assert patches.make_patch(*args).n == 3
    else:
        with pytest.raises(DegenerateSurfaceError, match=r"not normalized at grid index"):
            patches.make_patch(*args)


@pytest.mark.parametrize("jet, message", [("xi", "not normalized"), ("dx", "contact condition")])
def test_screen_fails_on_a_nan_defect(torus_patch, jet, message):
    # Each check passes only where its defect is within tolerance: a NaN
    # fails it at its grid index instead of slipping through a "> tol" test.
    p = torus_patch
    fields = {"xi": p.xi.copy(), "dx": p.dx.copy()}
    fields[jet][..., 0, 7, 3] = np.nan
    with pytest.raises(DegenerateSurfaceError, match=message + r".* at grid index \(7, 3\)"):
        patches.make_patch("r3", p.axes, p.x, fields["dx"], fields["xi"], p.II, None, "analytic")


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
    x = rng.standard_normal((3,) + (4,) * m)
    keys = list(itertools.combinations_with_replacement(range(m), order))
    table = {key: rng.standard_normal(x.shape) for key in keys[::2]}   # every other key absent
    jet = symmetric_jet(table, x, order)
    assert jet.shape == (m,) * order + x.shape
    for idx in itertools.product(range(m), repeat=order):
        key = tuple(sorted(idx))
        expected = table[key] if key in table else np.zeros(x.shape)
        assert np.array_equal(jet[idx], expected), idx


@pytest.mark.parametrize("params, message", [
    ({"quad": [1.0, 0.5], "cubic": [2.2222222222222223, 0.0]},
     r"vanishing principal curvature at grid index \(8, 0\)"),
    ({"quad": [1.0, 1.0], "cubic": [0.0, 0.0]}, r"umbilic point at grid index \(16, 16\)"),
], ids=["vanishing", "umbilic"])
def test_curvature_screen_names_the_grid_index(params, message):
    # The curvature fields are (m, *G): the located point is a grid index,
    # never a (component, u) pair.  k_1 = 2 + 6 (20/9) u vanishes on the row
    # u = -0.15 (index 8); equal quads make the origin (16, 16) umbilic.
    with pytest.raises(DegenerateSurfaceError, match=message):
        patches.build_patch({"builtin": "translational_graph", "params": params})


@pytest.mark.parametrize("builtin", ["torus", "torus4"])
def test_patch_fields_have_the_documented_shapes(builtin):
    # fd's table: component axes first, the grid axes (*G) last.
    p = patches.build_patch({"builtin": builtin})
    G, m, d = p.axes.shape, p.ngrid, len(p.x)
    shapes = {"x": (d,), "xi": (d,), "dx": (m, d), "dxi": (m, d), "I": (m, m), "II": (m, m),
              "Iinv": (m, m), "S": (m, m), "Linv": (m, m), "third_form": (m, m),
              "g_exact": (m, m), "area_element": ()}
    for name, comps in shapes.items():
        assert getattr(p, name).shape == comps + G, name
    for name in ("k", "radii"):
        assert getattr(p.shape, name).shape == (m,) + G, name
    for name in ("r", "rho"):
        assert getattr(p.shape, name).shape == G, name
    assert p.lift.Y.shape == p.lift.eta.shape == (d + 3,) + G
