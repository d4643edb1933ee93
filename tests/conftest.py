import numpy as np
import pytest

from laguerre import fd, hypersurface, minimality, patches, spaceforms
from laguerre.spheres import Plane, Sphere

TORUS_SPEC = {
    "builtin": "torus",
    "params": {"R": 2.0, "a": 1.0},
    "grid": {
        "u": [-np.pi / 3, np.pi / 3, 65],
        "v": [0.0, 2 * np.pi, 64],
        "periodic": ["v"],
    },
    "normal": "outward",
}


def to_grid(field, grid):
    """A field padded from its window to the whole grid with NaN, so that
    fields of different windows can be indexed by the same grid point."""
    width = [(0, 0)] * (field.ndim - grid.ndim) + [(m, m) for m in fd.margins(field, grid)]
    return np.pad(field, width, constant_values=np.nan)


def diff(f, axis, h, periodic, order):
    """First derivative of f along one axis by the central stencil of
    ``order``, term for term as the package's stencil; a bounded axis keeps
    its interior, a periodic one wraps."""
    r = {2: 1, 4: 2}[order]
    if periodic:
        f = np.concatenate([np.take(f, range(-r, 0), axis), f, np.take(f, range(r), axis)], axis)
    count = f.shape[axis] - 2 * r
    s = lambda k: np.take(f, range(r + k, r + k + count), axis)
    if order == 2:
        return (s(1) - s(-1)) / (2.0 * h)
    return (((s(-2) - 8.0 * s(-1)) + 8.0 * s(1)) - s(2)) / (12.0 * h)


def element_to_json(s):
    """The JSON object of a Euclidean sphere or plane, as ``element_from_json`` reads it."""
    if isinstance(s, Sphere):
        return {"kind": "sphere", "center": s.center.tolist(), "radius": s.radius}
    if isinstance(s, Plane):
        return {"kind": "plane", "normal": s.normal.tolist(), "offset": s.offset}
    raise TypeError(f"not a sphere element: {type(s).__name__}")


def same_point(p, q, tol=1e-9):
    """Projective equality of two ``ProjectivePoint``s: proportional representatives."""
    if p.vec.shape != q.vec.shape:
        return False
    u, v = p.vec, q.vec
    s = float(np.dot(u, v) / np.dot(v, v))
    return bool(np.abs(u - s * v).max() <= tol * max(1.0, np.abs(u).max()))


def grid_leading(f, ncomp):
    """The (*G, *C) view of a field stored (*C, *G) with ``ncomp`` component
    axes, for references written with numpy's trailing-block routines."""
    return np.moveaxis(f, tuple(range(ncomp)), tuple(range(-ncomp, 0)))


def component_leading(f, ncomp):
    """The (*C, *G) view of a (*G, *C) array with ``ncomp`` component axes."""
    return np.moveaxis(f, tuple(range(-ncomp, 0)), tuple(range(ncomp)))


def spaced_grid(shape, hs, periodic):
    """4th-order grid of the given shape whose axes start at 0 with steps ``hs``."""
    his = tuple(h * (c if p else c - 1) for h, c, p in zip(hs, shape, periodic))
    return fd.GridAxes(tuple("uvw"[:len(shape)]), (0.0,) * len(shape), his, tuple(shape),
                       tuple(periodic), order=4)


@pytest.fixture(scope="session")
def torus_patch():
    return patches.build_patch(TORUS_SPEC)


@pytest.fixture(scope="session")
def torus_shape(torus_patch):
    return torus_patch.shape


@pytest.fixture(scope="session")
def torus_field(torus_patch):
    return hypersurface.analyze(torus_patch)


@pytest.fixture(scope="session")
def torus_residuals(torus_field):
    return hypersurface.structural_residuals(torus_field)


@pytest.fixture(scope="session")
def torus_report(torus_field):
    return minimality.minimality_report(torus_field)


@pytest.fixture(scope="session")
def graph3_field():
    """The 3-axis cubic translational graph (n = 4), where C does not vanish."""
    return hypersurface.analyze(patches.build_patch({
        "builtin": "translational_graph",
        "params": {"quad": [1.0, 0.7, 0.4], "cubic": [0.1, 0.2, -0.1]},
        "grid": dict.fromkeys("uvw", [-0.25, 0.25, 21])}))


@pytest.fixture(scope="session")
def catenoid_patch():
    return patches.build_patch({"builtin": "maximal_catenoid_r31"})


@pytest.fixture(scope="session")
def embedded_catenoid(catenoid_patch):
    return spaceforms.embed_patch(catenoid_patch)


@pytest.fixture(scope="session")
def saddle_patch():
    return patches.build_patch({"builtin": "saddle_r30"})
