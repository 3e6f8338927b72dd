"""Periodic staggered (MAC) grids, fields, and difference operators.

Layout on the torus [0, L)^dim with n cells per direction:

  * scalar unknowns live at cell centers, cell ``i`` centered at (i + 1/2)*dx;
  * velocity component ``a`` lives on the faces normal to axis ``a``; face
    index ``i`` along that axis sits at i*dx, i.e. the LEFT/LOWER face of
    cell ``i``;
  * the 2D curl lives at cell corners (nodes), node ``[i, j]`` at (i*dx, j*dx).

A face vector is one float array of shape ``(dim,) + grid.shape`` with
component ``a`` at index ``a``, in ``FaceVectorField.components``, from
``grad_array`` and ``curl_t_array``, and through the solves in ``momentum``.

With this indexing

    div(u)[i]  = (u[i+1] - u[i]) / dx        (per axis, periodic wrap)
    grad(s)[i] = (s[i] - s[i-1]) / dx

are exact adjoints: sum(grad(s) * u) = -sum(s * div(u)) over the torus, and
the node curl annihilates gradients identically.  These exactness properties
are what make the effective-flux identity hold to solver tolerance.

The stencils slice: each periodic difference is one subtraction for the
interior and one for the wrapped end, written into a fresh array in the
operand order of the ``np.roll`` form, so the results are bit-identical to
``np.roll(c, -1, axis) - c`` and ``c - np.roll(c, 1, axis)`` divided by dx.
(``div_array`` starts its sum from the first axis's difference, not from
zeros, which can only flip the sign of an entry that is zero.)  ``np.roll``
costs several microseconds of call overhead per use, which dominates a step
at these grid sizes.  The stencils difference the trailing ``dim`` axes, so
leading axes pass through: ``div_array`` of a face vector whose components
are ``(K,) + grid.shape`` blocks returns the K divergences at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "Grid",
    "make_grid",
    "ScalarField",
    "FaceVectorField",
    "cell_coords",
    "face_coords",
    "divergence",
    "gradient",
    "curl",
    "mean_and_measure",
    "integral",
    "write_snapshot",
    "read_snapshot",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: ``dim`` in {1, 2}, ``n`` cells per direction."""

    dim: int
    n: int
    length: float

    @property
    def dx(self):
        return self.length / self.n

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def cell_volume(self):
        return self.dx**self.dim


def make_grid(dim, n, length=1.0):
    """Validated grid constructor; raises ConfigError on bad arguments."""
    if dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {dim}")
    if not isinstance(n, (int, np.integer)) or n < 4:
        raise ConfigError(f"n must be an integer >= 4, got {n}")
    if not (length > 0):
        raise ConfigError(f"length must be > 0, got {length}")
    return Grid(int(dim), int(n), float(length))


def _check_values(shape, data):
    try:
        data = np.asarray(data, dtype=float)
    except ValueError as exc:   # ragged nesting or non-numeric entries
        raise ConfigError(f"field values do not form a float array: {exc}") from None
    if data.shape != shape:
        raise ConfigError(f"field shape {data.shape} does not match {shape}")
    if not np.isfinite(data).all():
        raise ConfigError("field contains non-finite values")
    return data


class ScalarField:
    """Cell-centered scalar values on a grid (also reused for node values)."""

    __slots__ = ("grid", "data")

    def __init__(self, grid, data):
        self.grid = grid
        self.data = _check_values(grid.shape, data)

    @classmethod
    def _trusted(cls, grid, data):
        """Wrap a float array of the grid's shape, known finite, unchecked."""
        field = cls.__new__(cls)
        field.grid, field.data = grid, data
        return field

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample ``fn`` at cell centers; fn takes one coordinate array per axis."""
        return cls(grid, np.asarray(fn(*cell_coords(grid)), dtype=float))


class FaceVectorField:
    """Velocity-like field: ``components`` is one float array of shape
    ``(dim,) + grid.shape``, ``components[a]`` on the faces normal to axis a.
    The constructor also takes a sequence of ``dim`` cell-shaped arrays."""

    __slots__ = ("grid", "components")

    def __init__(self, grid, components):
        self.grid = grid
        self.components = _check_values((grid.dim,) + grid.shape, components)

    @classmethod
    def _trusted(cls, grid, components):
        """Wrap a float array of the face-vector shape, known finite, unchecked."""
        field = cls.__new__(cls)
        field.grid, field.components = grid, components
        return field

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    @classmethod
    def from_function(cls, grid, *fns):
        """Sample one function per component at that component's face points."""
        return cls(grid, [fn(*face_coords(grid, a)) for a, fn in enumerate(fns)])

    def max_abs(self):
        return float(np.abs(self.components).max())


def cell_coords(grid):
    """Cell-center coordinate arrays (meshgrid 'ij' for 2D)."""
    x = (np.arange(grid.n) + 0.5) * grid.dx
    if grid.dim == 1:
        return (x,)
    return tuple(np.meshgrid(x, x, indexing="ij"))


def face_coords(grid, axis):
    """Coordinates of the face points carrying velocity component ``axis``."""
    edge = np.arange(grid.n) * grid.dx
    center = (np.arange(grid.n) + 0.5) * grid.dx
    if grid.dim == 1:
        return (edge,)
    xs = [center] * grid.dim
    xs[axis] = edge
    return tuple(np.meshgrid(*xs, indexing="ij"))


# -- difference operators ---------------------------------------------------

def _axis_slices(axis):
    """(all but last, all but first, last, first) index tuples along axis."""
    pre = (slice(None),) * axis
    return (pre + (slice(None, -1),), pre + (slice(1, None),),
            pre + (slice(-1, None),), pre + (slice(None, 1),))


# indexed by axis % ndim: a negative axis counts from the end
_SLICES = (_axis_slices(0), _axis_slices(1), _axis_slices(2))


def _forward_diff(c, axis, out=None):
    """c[i+1] - c[i] along axis, periodic (np.roll(c, -1, axis) - c)."""
    init, tail, last, first = _SLICES[axis % c.ndim]
    out = np.empty_like(c) if out is None else out
    np.subtract(c[tail], c[init], out=out[init])
    np.subtract(c[first], c[last], out=out[last])
    return out


def _backward_diff(c, axis, out=None):
    """c[i] - c[i-1] along axis, periodic (c - np.roll(c, 1, axis))."""
    init, tail, last, first = _SLICES[axis % c.ndim]
    out = np.empty_like(c) if out is None else out
    np.subtract(c[tail], c[init], out=out[tail])
    np.subtract(c[first], c[last], out=out[first])
    return out


def lower_neighbor(c, axis):
    """c[i-1] along axis, periodic (np.roll(c, 1, axis))."""
    init, tail, last, first = _SLICES[axis % c.ndim]
    out = np.empty_like(c)
    out[tail] = c[init]
    out[first] = c[last]
    return out


def div_array(components, dx):
    dim = len(components)
    out = _forward_diff(components[0], -dim)
    for a in range(1, dim):
        out += _forward_diff(components[a], a - dim)
    out /= dx
    return out


def grad_array(data, dx, dim):
    out = np.empty((dim,) + data.shape)
    for a in range(dim):
        _backward_diff(data, a - dim, out[a])
    out /= dx
    return out


def curl_array(components, dx):
    ux, uy = components
    w = _backward_diff(uy, -2)
    w /= dx
    wx = _backward_diff(ux, -1)
    wx /= dx
    w -= wx
    return w


def curl_t_array(w, dx):
    """Adjoint of the node curl: node scalar -> face vector."""
    out = np.empty((2,) + w.shape)
    _forward_diff(w, -1, out[0])
    out[0] /= dx
    _forward_diff(w, -2, out[1])
    out[1] /= -dx   # x / (-dx) == -x / dx exactly
    return out


def divergence(u):
    """Cell-centered divergence of a face vector field."""
    return ScalarField(u.grid, div_array(u.components, u.grid.dx))


def gradient(s):
    """Face-centered gradient of a cell scalar field."""
    return FaceVectorField(s.grid, grad_array(s.data, s.grid.dx, s.grid.dim))


def curl(u):
    """Node-centered scalar curl (2D); identically zero in 1D."""
    if u.grid.dim == 1:
        return ScalarField.zeros(u.grid)
    return ScalarField(u.grid, curl_array(u.components, u.grid.dx))


def mean_and_measure(s, threshold):
    """Mean of the field and the measure of {s >= threshold}.

    The measure is the cell count above threshold times the cell volume.
    """
    mean = float(np.mean(s.data))
    measure = float(np.count_nonzero(s.data >= threshold)) * s.grid.cell_volume
    return mean, measure


def integral(s):
    """Sum of cell values times cell volume."""
    return float(np.sum(s.data)) * s.grid.cell_volume


# -- snapshot I/O ------------------------------------------------------------
#
# Text format, one value per line in row-major (C) order, preceded by a
# fixed header:
#
#   # dim=1
#   # n=256
#   # length=1
#   # time=0.5
#   # field=rho

def write_snapshot(path, name, grid, values, time):
    values = np.asarray(values, dtype=float)
    header = (
        f"dim={grid.dim}\n"
        f"n={grid.n}\n"
        f"length={grid.length:.17g}\n"
        f"time={float(time):.17g}\n"
        f"field={name}"
    )
    np.savetxt(path, values.ravel(order="C"), fmt="%.17g", header=header)


def read_snapshot(path):
    """Read a snapshot file; returns (values, meta dict).

    meta holds dim (int), n (int), length (float), time (float), field (str);
    values are reshaped to the grid shape.
    """
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, val = line[1:].strip().partition("=")
            meta[key.strip()] = val.strip()
    for key in ("dim", "n", "length", "time", "field"):
        if key not in meta:
            raise ConfigError(f"snapshot {path} is missing header key '{key}'")
    meta["dim"] = int(meta["dim"])
    meta["n"] = int(meta["n"])
    meta["length"] = float(meta["length"])
    meta["time"] = float(meta["time"])
    values = np.loadtxt(path).reshape((meta["n"],) * meta["dim"], order="C")
    return values, meta
