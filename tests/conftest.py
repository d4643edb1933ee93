import numpy as np
import pytest

from laguerre import fd, hypersurface, minimality, patches, spaceforms

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
    width = [(m, m) for m in fd.margins(field, grid)] + [(0, 0)] * (field.ndim - grid.ndim)
    return np.pad(field, width, constant_values=np.nan)


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
