"""Staggered MAC grid on the unit square and its discrete calculus.

Scalars (state u, coefficients, sources) live at cell centers, fluxes at
interior face centers, boundary data at boundary face midpoints.  A flux
has no entry on a boundary-normal face, so the side constraint p.nu = 0
holds by construction.  That is the one design constraint everything
else depends on: for every flux, the face gradient and the cell
divergence are exact negative adjoints under the weighted inner products
below, and the boundary trace and the Neumann-to-source map are exact
adjoints of each other.  All operators here are linear and
allocation-pure.

Index conventions (N cells per side, h = 1/N):

    ScalarField.values[i, j]   <-> center ((i + 1/2) h, (j + 1/2) h)
    FluxField.x_values[i, j]   <-> vertical face ((i + 1) h, (j + 1/2) h),
                                   shape (N - 1, N)
    FluxField.y_values[i, j]   <-> horizontal face ((i + 1/2) h, (j + 1) h),
                                   shape (N, N - 1)
    BoundaryData.values        <-> bottom, right, top, left; each side in
                                   increasing coordinate order
"""

import numpy as np
from dataclasses import dataclass


class GridError(ValueError):
    """Invalid grid or field construction."""


class GridMismatchError(GridError):
    """Two fields that must share a grid do not."""


@dataclass(frozen=True)
class StaggeredGrid:
    """Uniform staggered grid on [0,1]^2 with n cells per side."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 4:
            raise GridError(f"grid needs an integer n >= 4, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def cell_coords_1d(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.n) + 0.5) * self.h

    def cell_centers(self):
        """Meshgrids (x, y) of cell centers, shape (n, n) each."""
        c = self.cell_coords_1d()
        return np.meshgrid(c, c, indexing="ij")

    def boundary_midpoints(self) -> np.ndarray:
        """Coordinates of the 4n boundary face midpoints, shape (4n, 2)."""
        c = self.cell_coords_1d()
        zeros = np.zeros(self.n)
        ones = np.ones(self.n)
        bottom = np.column_stack([c, zeros])
        right = np.column_stack([ones, c])
        top = np.column_stack([c, ones])
        left = np.column_stack([zeros, c])
        return np.concatenate([bottom, right, top, left], axis=0)

    def refined(self, factor: int) -> "StaggeredGrid":
        if factor < 1:
            raise GridError("refinement factor must be >= 1")
        return StaggeredGrid(self.n * factor)


def _as_values(values, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.shape != shape:
        raise GridError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise GridError(f"{what} contains non-finite entries")
    return arr


class _FieldArithmetic:
    """Array-by-array arithmetic shared by the grid fields.

    Each field names its arrays once, in `_arrays`.  Every result goes
    through the constructor, so it is validated and owns its arrays.
    """

    _arrays: tuple[str, ...]

    def copy(self):
        return type(self)(self.grid, *[getattr(self, a) for a in self._arrays])

    def __add__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, *[getattr(self, a) + getattr(other, a)
                                       for a in self._arrays])

    def __sub__(self, other):
        _require_same_grid(self, other)
        return type(self)(self.grid, *[getattr(self, a) - getattr(other, a)
                                       for a in self._arrays])

    def __mul__(self, other):
        """Entry by entry with a field of the same type, else by a number."""
        if isinstance(other, type(self)):
            _require_same_grid(self, other)
            return type(self)(self.grid, *[getattr(self, a) * getattr(other, a)
                                           for a in self._arrays])
        s = float(other)
        return type(self)(self.grid, *[getattr(self, a) * s for a in self._arrays])

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, *[-getattr(self, a) for a in self._arrays])


@dataclass
class ScalarField(_FieldArithmetic):
    """Cell-centered scalar field; values[i, j] at ((i+1/2)h, (j+1/2)h)."""

    grid: StaggeredGrid
    values: np.ndarray
    _arrays = ("values",)

    def __post_init__(self):
        n = self.grid.n
        self.values = _as_values(self.values, (n, n), "ScalarField.values")

    @classmethod
    def constant(cls, grid: StaggeredGrid, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(value)))

    @classmethod
    def zeros(cls, grid: StaggeredGrid) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n)))

    @classmethod
    def from_function(cls, grid: StaggeredGrid, fn) -> "ScalarField":
        """Sample fn(x, y) at cell centers (fn must broadcast over arrays)."""
        x, y = grid.cell_centers()
        return cls(grid, fn(x, y))


@dataclass
class FluxField(_FieldArithmetic):
    """Interior-face vector field (p_x on vertical, p_y on horizontal faces).

    Boundary-normal faces carry no entry: p.nu = 0 there by construction.
    """

    grid: StaggeredGrid
    x_values: np.ndarray
    y_values: np.ndarray
    _arrays = ("x_values", "y_values")

    def __post_init__(self):
        n = self.grid.n
        self.x_values = _as_values(self.x_values, (n - 1, n), "FluxField.x_values")
        self.y_values = _as_values(self.y_values, (n, n - 1), "FluxField.y_values")

    @classmethod
    def zeros(cls, grid: StaggeredGrid) -> "FluxField":
        n = grid.n
        return cls(grid, np.zeros((n - 1, n)), np.zeros((n, n - 1)))


@dataclass
class BoundaryData(_FieldArithmetic):
    """Values at the 4n boundary face midpoints (bottom, right, top, left)."""

    grid: StaggeredGrid
    values: np.ndarray
    _arrays = ("values",)

    def __post_init__(self):
        self.values = _as_values(np.ravel(self.values), (4 * self.grid.n,),
                                 "BoundaryData.values")

    @classmethod
    def zeros(cls, grid: StaggeredGrid) -> "BoundaryData":
        return cls(grid, np.zeros(4 * grid.n))

    @classmethod
    def from_sides(cls, grid: StaggeredGrid, bottom, right, top, left) -> "BoundaryData":
        n = grid.n
        parts = [np.broadcast_to(np.asarray(s, dtype=float), (n,)) for s in
                 (bottom, right, top, left)]
        return cls(grid, np.concatenate(parts))

    def sides(self):
        """(bottom, right, top, left) views of the 4n array."""
        n = self.grid.n
        v = self.values
        return v[0:n], v[n:2 * n], v[2 * n:3 * n], v[3 * n:4 * n]


def _require_same_grid(a, b):
    if a.grid.n != b.grid.n:
        raise GridMismatchError(
            f"fields live on different grids (n={a.grid.n} vs n={b.grid.n})")


# ---------------------------------------------------------------------------
# Differential / averaging / trace operators
# ---------------------------------------------------------------------------

def gradient_to_faces(u: ScalarField) -> FluxField:
    """Face gradient of a cell field: adjacent-cell difference over h.

    This is the exact negative adjoint of divergence_to_cells.
    """
    h = u.grid.h
    v = u.values
    return FluxField(u.grid, (v[1:, :] - v[:-1, :]) / h, (v[:, 1:] - v[:, :-1]) / h)


def divergence_to_cells(p: FluxField) -> ScalarField:
    """Cell divergence of a face field; boundary-normal faces count as zero."""
    h = p.grid.h
    px = np.pad(p.x_values, ((1, 1), (0, 0)))
    py = np.pad(p.y_values, ((0, 0), (1, 1)))
    div = (px[1:, :] - px[:-1, :]) / h + (py[:, 1:] - py[:, :-1]) / h
    return ScalarField(p.grid, div)


def average_to_faces(q: ScalarField) -> FluxField:
    """Arithmetic mean of the two cells adjacent to each face."""
    v = q.values
    return FluxField(q.grid, 0.5 * (v[1:, :] + v[:-1, :]), 0.5 * (v[:, 1:] + v[:, :-1]))


def average_to_faces_adjoint(z: FluxField) -> ScalarField:
    """Exact transpose of average_to_faces under the h^2-weighted products."""
    n = z.grid.n
    zx, zy = z.x_values, z.y_values
    out = np.zeros((n, n))
    out[:-1, :] += 0.5 * zx
    out[1:, :] += 0.5 * zx
    out[:, :-1] += 0.5 * zy
    out[:, 1:] += 0.5 * zy
    return ScalarField(z.grid, out)


def boundary_trace(u: ScalarField) -> BoundaryData:
    """Piecewise-constant trace: boundary-adjacent cell values, 4n ordering."""
    v = u.values
    return BoundaryData.from_sides(u.grid, v[:, 0], v[-1, :], v[:, -1], v[0, :])


def neumann_to_source(h_data: BoundaryData) -> ScalarField:
    """Spread boundary flux onto the adjacent cell layer as a volume source.

    Each boundary value contributes value/h to its cell, so the cell pairing
    against any field reproduces the boundary pairing against the trace
    exactly; corner cells pick up both incident sides.
    """
    grid = h_data.grid
    n, h = grid.n, grid.h
    bottom, right, top, left = h_data.sides()
    g = np.zeros((n, n))
    g[:, 0] += bottom / h
    g[-1, :] += right / h
    g[:, -1] += top / h
    g[0, :] += left / h
    return ScalarField(grid, g)


# ---------------------------------------------------------------------------
# Inner products and norms
# ---------------------------------------------------------------------------

def cell_inner(a: ScalarField, b: ScalarField) -> float:
    _require_same_grid(a, b)
    return float(a.grid.h ** 2 * np.vdot(a.values, b.values))


def cell_norm(a: ScalarField) -> float:
    return float(np.sqrt(max(cell_inner(a, a), 0.0)))


def face_inner(a: FluxField, b: FluxField) -> float:
    _require_same_grid(a, b)
    h2 = a.grid.h ** 2
    return float(h2 * (np.vdot(a.x_values, b.x_values)
                       + np.vdot(a.y_values, b.y_values)))


def boundary_inner(a: BoundaryData, b: BoundaryData) -> float:
    _require_same_grid(a, b)
    return float(a.grid.h * np.vdot(a.values, b.values))


def boundary_norm(a: BoundaryData) -> float:
    return float(np.sqrt(max(boundary_inner(a, a), 0.0)))


# ---------------------------------------------------------------------------
# Grid transfer (used for data synthesis on refined grids)
# ---------------------------------------------------------------------------

def prolong_cells(u: ScalarField, factor: int) -> ScalarField:
    """Piecewise-constant refinement of a cell field by an integer factor."""
    fine = u.grid.refined(factor)
    vals = np.repeat(np.repeat(u.values, factor, axis=0), factor, axis=1)
    return ScalarField(fine, vals)


def restrict_cells(u: ScalarField, factor: int) -> ScalarField:
    """Block-mean coarsening; exact left inverse of prolong_cells."""
    if factor < 1:
        raise GridError("factor must be >= 1")
    n = u.grid.n
    if n % factor != 0:
        raise GridError(f"cannot coarsen n={n} by factor {factor}")
    m = n // factor
    v = u.values.reshape(m, factor, m, factor).mean(axis=(1, 3))
    return ScalarField(StaggeredGrid(m), v)


def prolong_boundary(b: BoundaryData, factor: int) -> BoundaryData:
    """Replicate boundary values onto the refined boundary faces."""
    fine = b.grid.refined(factor)
    return BoundaryData(fine, np.repeat(b.values, factor))
