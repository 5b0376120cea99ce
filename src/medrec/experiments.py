"""Benchmark media, noise injection, quality metrics, field files.

The five benchmark media place square (or square-ring) inclusions of
magnitude 20 in a unit background; which ones carry absorption contrast
and how many excitations they use is part of the definition, as are the
per-noise-column regularization weights the reconstruction stage uses.
Backgrounds of 1.0 and the box [0.5, 30] are conventions of this
package, not part of the benchmark definitions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import BoundaryData, GridError, ScalarField, StaggeredGrid
from .model import CoefficientPair

BACKGROUND_SIGMA = 1.0
BACKGROUND_MU = 1.0
BOX_LO = 0.5
BOX_HI = 30.0
DEFAULT_C_PHI = 20.0

_EDGE_TOL = 1e-12


def clip_to_box(q: ScalarField) -> ScalarField:
    """q clipped into [BOX_LO, BOX_HI], the box both stages work in."""
    return ScalarField(q.grid, np.clip(q.values, BOX_LO, BOX_HI))


@dataclass(frozen=True)
class SquareInclusion:
    center: tuple[float, float]
    width: float
    value: float

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        half = 0.5 * self.width + _EDGE_TOL
        return (np.abs(x - self.center[0]) <= half) \
            & (np.abs(y - self.center[1]) <= half)


@dataclass(frozen=True)
class RingInclusion:
    """Square annulus between the inner and outer half-widths."""

    center: tuple[float, float]
    outer_width: float
    inner_width: float
    value: float

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = np.maximum(np.abs(x - self.center[0]), np.abs(y - self.center[1]))
        return (d <= 0.5 * self.outer_width + _EDGE_TOL) \
            & (d > 0.5 * self.inner_width + _EDGE_TOL)


@dataclass(frozen=True)
class ExampleSpec:
    """One benchmark medium plus its reconstruction parameters."""

    name: str
    sigma_inclusions: tuple = ()
    mu_inclusions: tuple = ()
    sigma_background: float = BACKGROUND_SIGMA
    mu_background: float = BACKGROUND_MU
    excitation_count: int = 1
    params_exact: tuple = (1e-2, 2e-2, 5e-4, 5e-4)   # (a_sigma, b_sigma, a_mu, b_mu)
    params_noisy: tuple = (1e-2, 2e-2, 5e-4, 1e-3)

    @property
    def reconstruct_mu(self) -> bool:
        """Whether the absorption coefficient is unknown in this benchmark."""
        return len(self.mu_inclusions) > 0

    def rasterize(self, grid: StaggeredGrid) -> CoefficientPair:
        """Truth fields at a given resolution; a cell belongs to a shape
        iff its center does."""
        x, y = grid.cell_centers()
        sigma = np.full((grid.n, grid.n), self.sigma_background)
        mu = np.full((grid.n, grid.n), self.mu_background)
        for shape in self.sigma_inclusions:
            sigma[shape.contains(x, y)] = shape.value
        for shape in self.mu_inclusions:
            mu[shape.contains(x, y)] = shape.value
        return CoefficientPair(ScalarField(grid, sigma), ScalarField(grid, mu))

    def regularization_params(self, noisy: bool) -> tuple:
        return self.params_noisy if noisy else self.params_exact


_EXAMPLES = {
    "ex1": ExampleSpec(
        name="ex1",
        sigma_inclusions=(SquareInclusion((0.25, 0.65), 0.05, 20.0),),
        mu_inclusions=(SquareInclusion((0.35, 0.30), 0.05, 20.0),),
        excitation_count=1,
        params_exact=(1.0e-2, 2.0e-2, 5.0e-4, 5.0e-4),
        params_noisy=(1.0e-2, 2.0e-2, 5.0e-4, 1.0e-3)),
    "ex2_1": ExampleSpec(
        name="ex2_1",
        sigma_inclusions=(SquareInclusion((0.15, 0.50), 0.05, 20.0),
                          SquareInclusion((0.50, 0.85), 0.05, 20.0)),
        excitation_count=1,
        params_exact=(1.0e-3, 5.0e-3, 0.0, 0.0),
        params_noisy=(1.0e-3, 1.0e-2, 0.0, 0.0)),
    "ex2_2": ExampleSpec(
        name="ex2_2",
        sigma_inclusions=(SquareInclusion((0.45, 0.425), 0.1, 20.0),
                          SquareInclusion((0.55, 0.575), 0.1, 20.0)),
        excitation_count=1,
        params_exact=(1.0e-6, 1.0e-3, 0.0, 0.0),
        params_noisy=(1.0e-6, 2.0e-3, 0.0, 0.0)),
    "ex3": ExampleSpec(
        name="ex3",
        sigma_inclusions=(SquareInclusion((0.50, 0.25), 0.1, 20.0),
                          SquareInclusion((0.50, 0.75), 0.1, 20.0)),
        mu_inclusions=(SquareInclusion((0.25, 0.50), 0.1, 20.0),
                       SquareInclusion((0.75, 0.50), 0.1, 20.0)),
        excitation_count=1,
        params_exact=(1.0e-3, 1.0e-2, 1.0e-2, 5.0e-3),
        params_noisy=(1.0e-3, 2.0e-2, 1.0e-2, 5.0e-3)),
    "ex4": ExampleSpec(
        name="ex4",
        sigma_inclusions=(RingInclusion((0.5, 0.6), 0.2, 0.15, 20.0),),
        excitation_count=2,
        params_exact=(1.0e-5, 5.0e-4, 0.0, 0.0),
        params_noisy=(1.0e-5, 1.0e-3, 0.0, 0.0)),
}


def make_example(name: str) -> ExampleSpec:
    try:
        return _EXAMPLES[name]
    except KeyError:
        known = ", ".join(sorted(_EXAMPLES))
        raise ValueError(f"unknown example {name!r} (known: {known})") from None


def example_names() -> list[str]:
    return sorted(_EXAMPLES)


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

def add_noise(f: BoundaryData, epsilon: float, seed: int) -> BoundaryData:
    """Pointwise Gaussian noise scaled by epsilon times the trace maximum.

    Each entry gains epsilon * eta * max|f| with independent standard
    normal eta from the seeded generator; epsilon == 0 returns the input
    values unchanged.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon == 0.0:
        return f.copy()
    rng = np.random.default_rng(seed)
    eta = rng.standard_normal(f.values.shape)
    scale = float(np.abs(f.values).max())
    return BoundaryData(f.grid, f.values + epsilon * eta * scale)


# ---------------------------------------------------------------------------
# Quality metrics
# ---------------------------------------------------------------------------

@dataclass
class CoefficientMetrics:
    relative_l2_error: float
    support_jaccard: float
    center_of_mass_errors: list[float] = field(default_factory=list)


@dataclass
class Metrics:
    sigma: CoefficientMetrics
    mu: CoefficientMetrics


def _support_threshold(truth: np.ndarray) -> tuple[float, float]:
    bg = float(np.median(truth))
    contrast = float(truth.max()) - bg
    return bg, bg + 0.5 * contrast


def _centers_of_mass(values: np.ndarray, support: np.ndarray, bg: float,
                     grid: StaggeredGrid) -> list[tuple[float, float]]:
    from scipy import ndimage  # on first use: a slow import only metrics need
    labels, count = ndimage.label(support)
    x, y = grid.cell_centers()
    centers = []
    for lab in range(1, count + 1):
        comp = labels == lab
        weights = np.clip(values[comp] - bg, 0.0, None)
        total = weights.sum()
        if total <= 0:
            weights = np.ones(comp.sum())
            total = weights.sum()
        centers.append((float((x[comp] * weights).sum() / total),
                        float((y[comp] * weights).sum() / total)))
    return centers


def _metrics_for(rec: ScalarField, tru: ScalarField) -> CoefficientMetrics:
    grid = tru.grid
    diff = rec.values - tru.values
    tru_norm = math.sqrt(float(np.vdot(tru.values, tru.values)))
    rel = math.sqrt(float(np.vdot(diff, diff))) / tru_norm if tru_norm else math.inf

    bg, thr = _support_threshold(tru.values)
    sup_true = tru.values > thr
    sup_rec = rec.values > thr
    union = (sup_true | sup_rec).sum()
    jaccard = float((sup_true & sup_rec).sum() / union) if union else 1.0

    true_centers = _centers_of_mass(tru.values, sup_true, bg, grid)
    rec_centers = _centers_of_mass(rec.values, sup_rec, bg, grid)
    errors = []
    for tc in true_centers:
        if not rec_centers:
            errors.append(math.inf)
            continue
        errors.append(min(math.hypot(tc[0] - rc[0], tc[1] - rc[1])
                          for rc in rec_centers))
    return CoefficientMetrics(rel, jaccard, errors)


def compute_metrics(reconstructed: CoefficientPair, truth: CoefficientPair) -> Metrics:
    """Relative errors, support overlap, and per-inclusion center offsets.

    Supports are cells above background plus half the contrast (both
    thresholds taken from the truth); each true inclusion is matched to
    the nearest connected component of the reconstructed support.
    """
    if reconstructed.sigma.grid.n != truth.sigma.grid.n:
        raise ValueError("reconstruction and truth grids differ")
    return Metrics(sigma=_metrics_for(reconstructed.sigma, truth.sigma),
                   mu=_metrics_for(reconstructed.mu, truth.mu))


def background_deviation(rec: ScalarField, tru: ScalarField,
                         dilate_cells: int = 6) -> float:
    """Largest relative deviation from the background away from inclusions.

    The true supports are dilated by a few cells before carving out the
    background region, so edge smearing does not count against it.
    """
    from scipy import ndimage  # as in _centers_of_mass
    bg, thr = _support_threshold(tru.values)
    support = tru.values > thr
    if support.any() and dilate_cells > 0:
        size = 2 * dilate_cells + 1
        support = ndimage.binary_dilation(support, np.ones((size, size), bool))
    outside = ~support
    if not outside.any():
        return 0.0
    return float(np.abs(rec.values[outside] - bg).max() / abs(bg))


# ---------------------------------------------------------------------------
# Field files and rendering
# ---------------------------------------------------------------------------

_MAGIC = "medrec-field"
_VERSION = "2"
_DTYPE = "<f8"


class FieldFormatError(ValueError):
    """Malformed field file; a header error names its line."""


def serialize_field(obj, path) -> None:
    """Write a scalar or boundary field as a version-2 field file.

    Three ASCII header lines, `medrec-field 2`, `kind scalar|boundary`
    and `n <n>`, each ended by a newline, are followed by the values as
    little-endian float64: n*n of them in C order (values[i, j] at index
    i*n + j) for a scalar field, 4n in BoundaryData's order for boundary
    data.  The round trip is bit-exact.
    """
    if isinstance(obj, ScalarField):
        kind = "scalar"
    elif isinstance(obj, BoundaryData):
        kind = "boundary"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    header = f"{_MAGIC} {_VERSION}\nkind {kind}\nn {obj.grid.n}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(obj.values.astype(_DTYPE, copy=False).tobytes())


def deserialize_field(path):
    """Read a version-2 field file back into a ScalarField or BoundaryData.

    Other versions are refused.  The payload must hold exactly the
    header's number of values; non-finite values are refused when the
    field is built (GridError naming the file).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # Three newline-ended header lines, then the payload.
    lines = data.split(b"\n", 3)

    def fail(lineno, msg):
        raise FieldFormatError(f"{path}: line {lineno}: {msg}")

    def header_line(lineno):
        if len(lines) <= lineno:
            fail(lineno, "truncated header")
        return lines[lineno - 1].decode("ascii", "replace").split()

    if lines[0].decode("ascii", "replace").split() != [_MAGIC, _VERSION]:
        fail(1, f"expected header '{_MAGIC} {_VERSION}'")
    parts = header_line(2)
    if len(parts) != 2 or parts[0] != "kind" or parts[1] not in ("scalar", "boundary"):
        fail(2, f"expected 'kind scalar' or 'kind boundary', got {' '.join(parts)!r}")
    kind = parts[1]
    parts = header_line(3)
    if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit() or int(parts[1]) < 4:
        fail(3, f"expected 'n <integer >= 4>', got {' '.join(parts)!r}")
    n = int(parts[1])

    count = n * n if kind == "scalar" else 4 * n
    payload = lines[3]
    if len(payload) != 8 * count:
        raise FieldFormatError(f"{path}: expected {count} float64 values "
                               f"({8 * count} bytes) after the header, "
                               f"found {len(payload)} bytes")
    values = np.frombuffer(payload, dtype=_DTYPE)
    grid = StaggeredGrid(n)
    try:
        if kind == "scalar":
            return ScalarField(grid, values.reshape(n, n))
        return BoundaryData(grid, values)
    except GridError as exc:        # non-finite values
        raise GridError(f"{path}: {exc}") from None


def render_pgm(fld: ScalarField | BoundaryData, path) -> None:
    """Render a field as a 16-bit binary PGM (P5) image.

    [min, max] maps linearly onto [0, 65535]; a constant field renders
    as a uniform image.  A scalar field's row zero is the top of the
    domain; boundary data renders as one row of 4n pixels.
    """
    vals = fld.values
    lo, hi = float(vals.min()), float(vals.max())
    if hi > lo:
        scaled = (vals - lo) / (hi - lo) * 65535.0
    else:
        scaled = np.zeros_like(vals)
    pixels = np.round(scaled).astype(">u2")
    if isinstance(fld, BoundaryData):
        image = pixels[np.newaxis, :]
    else:
        image = pixels.T[::-1, :]  # rows top-to-bottom, columns left-to-right
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode("ascii"))
        fh.write(image.tobytes())
