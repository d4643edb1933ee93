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


def symmetric_jet(table, x, order):
    """Symmetric derivative array (m, ..., m, d, *G) of x (d, *G) with
    ``order`` direction axes, assembled from its distinct entries ``table``
    (keyed by sorted index tuples; absent entries are zero) in one gather:
    slot (a, b, ...) holds the entry of the sorted key of (a, b, ...).  The
    reference for the builds, which read the tables entry by entry."""
    m = x.ndim - 1
    slot = {tuple(sorted(key)): e + 1 for e, key in enumerate(table)}   # 0: the zero entry
    index = np.reshape([slot.get(tuple(sorted(idx)), 0) for idx in np.ndindex((m,) * order)],
                       (m,) * order)
    return np.take(np.stack([np.zeros_like(x), *table.values()]), index, axis=0)


def whole_grid_eigvalsh(a):
    """Ascending eigenvalues of symmetric (m, m, *G) blocks, m <= 3, by
    ``fd._small_eigvalsh``'s cyclic Jacobi rotations applied at every grid
    point, a point below the stopping rule rotated by t = 0: the reference
    for the kernel, which rotates only the points above it."""
    m = len(a)
    d = [a[i, i] for i in range(m)]
    pairs = [(p, q) for p, q in ((0, 1), (0, 2), (1, 2)) if q < m]
    off = {(p, q): a[q, p] for p, q in pairs}
    for _ in range(fd.JACOBI_SWEEPS if m == 3 else 1):
        rotated = False
        for p, q in pairs:
            apq = off[p, q]
            big = np.abs(apq) > fd.JACOBI_TOL * np.sqrt(np.abs(d[p])) * np.sqrt(np.abs(d[q]))
            if not big.any():
                continue
            rotated = True
            theta = np.divide(d[q] - d[p], 2.0 * apq, out=np.zeros(apq.shape), where=big)
            t = np.where(big, np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(1.0, theta)), 0.0)
            d[p], d[q] = d[p] - t * apq, d[q] + t * apq
            off[p, q] = np.zeros(apq.shape)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            for r in range(m):
                if r not in (p, q):
                    rp, rq = tuple(sorted((r, p))), tuple(sorted((r, q)))
                    off[rp], off[rq] = c * off[rp] - s * off[rq], s * off[rp] + c * off[rq]
        if not rotated:
            break
    return np.stack(fd.ascending(d))


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
def graph4_field():
    """The 4-axis cubic translational graph (n = 5), where the dimension
    coefficients (n - 2), (n - 3), (n - 4) all differ from 0 and 1; about
    1.4 s of CPU time."""
    return hypersurface.analyze(patches.build_patch({
        "builtin": "translational_graph",
        "params": {"quad": [1.0, 0.7, 0.45, 0.25], "cubic": [0.05, -0.03, 0.04, 0.02]},
        "grid": dict.fromkeys("uvwx", [-0.25, 0.25, 19])}))


@pytest.fixture(scope="session")
def catenoid_patch():
    return patches.build_patch({"builtin": "maximal_catenoid_r31"})


@pytest.fixture(scope="session")
def embedded_catenoid(catenoid_patch):
    return spaceforms.embed_patch(catenoid_patch)


@pytest.fixture(scope="session")
def saddle_patch():
    return patches.build_patch({"builtin": "saddle_r30"})
