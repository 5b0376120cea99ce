"""Direct sampling stage: index functions, thresholding, initial guesses.

Scattered boundary data (measured trace minus the homogeneous-background
trace) is decomposed against two probe families evaluated on the
boundary: discrete Green's functions of the background medium (monopole,
sensitive to absorption-type scatterers) and their spatial gradients
(dipole, sensitive to diffusion-type scatterers).  All monopole probes
come from a single sparse factorization of the background operator:
ceil(n/2) adjoint solves for half of one boundary side, and the square's
symmetries (which a constant background keeps exactly) for every other
face.  With positive background coefficients that operator is symmetric
positive definite, so it is factorized pivot-free under a symmetric
minimum-degree ordering (operators.SPD_LU).

Because the two families are far from orthogonal on the boundary, the
raw normalized pairings alone mislocate whichever coefficient carries
the weaker response.  A small greedy fit (one atom of each family first,
then joint least-squares refits with local position refinement, then a
contribution-based prune) splits the data into monopole, dipole, and
residual parts; each index field is the normalized pairing of its family
against the data with the *other* family's fitted part removed.  Fields
are rescaled to [0, 1] and sharpened so that the default cutoff carves a
compact subdomain; a family with no significant fitted component yields
an identically zero index, which downstream turns into a plain
background initial guess.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .forward import MeasurementSet, generate_measurements
from .grid import BoundaryData, ScalarField, StaggeredGrid
from .operators import SPD_LU, diffusion_matrix, neumann_source

# Tuning constants of the sampling stage (validated on the benchmark media).
SAMPLING_MARGIN = 0.1        # probes/index restricted to this interior margin
LOWPASS_MODES = 24           # boundary Fourier modes kept before fitting
SHARPEN_QUANTILE = 0.995     # index quantile mapped onto the default cutoff
GREEDY_ENERGY_FRAC = 1e-3    # minimum residual-energy gain to add an atom
PRUNE_ENERGY_FRAC = 2e-3     # minimum energy contribution to keep an atom
MAX_ATOMS = 8
REFINE_WINDOW = 4
DEFAULT_THETA = 0.55


class EmptyDataError(ValueError):
    """All scattered-data vectors are identically zero; nothing to image."""


@dataclass
class IndexResult:
    """Normalized index fields in [0, 1], one per coefficient family."""

    phi_sigma: ScalarField
    phi_mu: ScalarField


@dataclass
class SubdomainMask:
    """Boolean cell mask of the thresholded index support."""

    grid: StaggeredGrid
    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        n = self.grid.n
        if self.mask.shape != (n, n):
            raise ValueError(f"mask must have shape {(n, n)}")

    @property
    def is_empty(self) -> bool:
        return not self.mask.any()


def homogeneous_reference(background_sigma: float, background_mu: float,
                          excitations: list[BoundaryData], oversample: int = 2,
                          tol: float = 1e-10) -> list[BoundaryData]:
    """Dirichlet traces of the constant-background medium, per excitation.

    Must be generated through the same oversampled pipeline as the
    measurements so the discretization bias cancels in the difference.
    """
    if background_sigma <= 0 or background_mu <= 0:
        raise ValueError("background coefficients must be positive")
    grid = excitations[0].grid
    sigma = ScalarField.constant(grid, background_sigma)
    mu = ScalarField.constant(grid, background_mu)
    sets = generate_measurements(sigma, mu, excitations, oversample=oversample, tol=tol)
    return [m.f for m in sets]


def scattered_data(measurements: list[MeasurementSet],
                   reference: list[BoundaryData]) -> list[BoundaryData]:
    """Per-excitation difference between measured and background traces."""
    if len(measurements) != len(reference):
        raise ValueError("one reference trace per measurement set is required")
    return [m.f - f_hom for m, f_hom in zip(measurements, reference)]


class _ProbeFamily:
    """Boundary signatures of background Green's functions and gradients."""

    def __init__(self, grid: StaggeredGrid, background_sigma: float,
                 background_mu: float):
        n, h = grid.n, grid.h
        self.grid = grid
        operator = diffusion_matrix(np.full((n, n), background_sigma),
                                    np.full((n, n), background_mu))
        # One source column per boundary face: value 1/h on the adjacent
        # cell.  With constant coefficients the operator commutes with the
        # square's symmetries (x <-> y, x -> 1 - x, y -> 1 - y), so the
        # Green's function of a mirrored source is the mirrored Green's
        # function: solve the first ceil(n/2) bottom faces (cells (i, 0))
        # and map every other face onto them.
        half = (n + 1) // 2
        solved = splu(operator, **SPD_LU).solve(
            neumann_source(n)[:, :half].toarray()).reshape(n, n, half)
        self.mono = np.empty((n * n, 4 * n), order="F")
        stacked = self.mono.reshape(n, n, 4 * n)
        bottom, right, top, left = (stacked[:, :, k * n:(k + 1) * n]
                                    for k in range(4))
        bottom[:, :, :half] = solved
        bottom[:, :, half:] = solved[::-1, :, :n - half][:, :, ::-1]
        left[...] = bottom.transpose(1, 0, 2)
        right[...] = left[::-1]
        top[...] = bottom[:, ::-1]
        self.dip_x = np.gradient(stacked, h, axis=0).reshape(n * n, 4 * n)
        self.dip_y = np.gradient(stacked, h, axis=1).reshape(n * n, 4 * n)
        self._mm = (self.mono * self.mono).sum(axis=1)
        self._xx = (self.dip_x * self.dip_x).sum(axis=1)
        self._yy = (self.dip_y * self.dip_y).sum(axis=1)
        self._xy = (self.dip_x * self.dip_y).sum(axis=1)
        x, y = grid.cell_centers()
        m = SAMPLING_MARGIN
        self.interior = ((x > m) & (x < 1 - m) & (y > m) & (y < 1 - m)).ravel()

    def mono_gain(self, r: np.ndarray) -> np.ndarray:
        out = (self.mono @ r) ** 2 / self._mm
        out[~self.interior] = 0.0
        return out

    def dip_gain(self, r: np.ndarray) -> np.ndarray:
        px = self.dip_x @ r
        py = self.dip_y @ r
        det = np.maximum(self._xx * self._yy - self._xy ** 2, 1e-300)
        out = (self._yy * px * px - 2 * self._xy * px * py
               + self._xx * py * py) / det
        out[~self.interior] = 0.0
        return out

    def mono_pairing(self, r: np.ndarray) -> np.ndarray:
        """Normalized |<r, G_x>| per sampling cell (zero in the margin)."""
        r_norm = math.sqrt(float(r @ r))
        out = np.abs(self.mono @ r) / (r_norm * np.sqrt(self._mm))
        out[~self.interior] = 0.0
        return out

    def dip_pairing(self, r: np.ndarray) -> np.ndarray:
        """Larger of the two normalized dipole-component pairings."""
        r_norm = math.sqrt(float(r @ r))
        px = np.abs(self.dip_x @ r) / (r_norm * np.sqrt(self._xx))
        py = np.abs(self.dip_y @ r) / (r_norm * np.sqrt(self._yy))
        out = np.maximum(px, py)
        out[~self.interior] = 0.0
        return out

    def columns(self, picks):
        cols, owners = [], []
        for kind, cell in picks:
            if kind == "m":
                cols.append(self.mono[cell])
                owners.append("m")
            else:
                cols.extend([self.dip_x[cell], self.dip_y[cell]])
                owners.extend(["d", "d"])
        return cols, owners

    def joint_parts(self, v: np.ndarray, picks):
        """Joint least-squares split of v into (monopole, dipole, residual)."""
        cols, owners = self.columns(picks)
        if not cols:
            return np.zeros_like(v), np.zeros_like(v), v
        basis = np.array(cols).T
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        mono = np.zeros_like(v)
        dip = np.zeros_like(v)
        for col, owner, c in zip(cols, owners, coef):
            if owner == "m":
                mono += c * col
            else:
                dip += c * col
        return mono, dip, v - mono - dip

    def joint_residual(self, v, picks):
        return self.joint_parts(v, picks)[2]


def _lowpass(values: np.ndarray, modes: int = LOWPASS_MODES) -> np.ndarray:
    spectrum = np.fft.rfft(values)
    spectrum[modes:] = 0.0
    return np.fft.irfft(spectrum, len(values))


def _refine_positions(probes: _ProbeFamily, v: np.ndarray, picks,
                      window: int = REFINE_WINDOW, rounds: int = 3):
    """Coordinate descent of atom positions against the joint residual."""
    n = probes.grid.n
    for _ in range(rounds):
        changed = False
        for idx in range(len(picks)):
            kind, cell = picks[idx]
            ci, cj = divmod(cell, n)
            best_rn, best_pick = None, picks[idx]
            for di in range(-window, window + 1):
                for dj in range(-window, window + 1):
                    ii, jj = ci + di, cj + dj
                    if not (0 <= ii < n and 0 <= jj < n):
                        continue
                    cand = ii * n + jj
                    if not probes.interior[cand]:
                        continue
                    trial = picks.copy()
                    trial[idx] = (kind, cand)
                    resid = probes.joint_residual(v, trial)
                    rn = float(resid @ resid)
                    if best_rn is None or rn < best_rn:
                        best_rn, best_pick = rn, (kind, cand)
            if best_pick != picks[idx]:
                changed = True
            picks[idx] = best_pick
        if not changed:
            break
    return picks


def _fit_sources(probes: _ProbeFamily, v: np.ndarray):
    """Greedy monopole/dipole decomposition with joint refits.

    Starts with the best atom of each family (so neither can silently
    absorb the other), grows while an atom still explains a meaningful
    share of the data, and finally prunes atoms whose removal barely
    changes the fit, which strips the phantom family on single-family
    media.
    """
    total = float(v @ v)
    gm = probes.mono_gain(v)
    gd = probes.dip_gain(v)
    if gd.max() >= gm.max():
        picks = [("d", int(np.argmax(gd)))]
        picks.append(("m", int(np.argmax(
            probes.mono_gain(probes.joint_residual(v, picks))))))
    else:
        picks = [("m", int(np.argmax(gm)))]
        picks.append(("d", int(np.argmax(
            probes.dip_gain(probes.joint_residual(v, picks))))))
    picks = _refine_positions(probes, v, picks)
    resid = probes.joint_residual(v, picks)
    for _ in range(MAX_ATOMS - 2):
        gm = probes.mono_gain(resid)
        gd = probes.dip_gain(resid)
        if gd.max() >= gm.max():
            kind, cell, gain = "d", int(np.argmax(gd)), float(gd.max())
        else:
            kind, cell, gain = "m", int(np.argmax(gm)), float(gm.max())
        if gain < GREEDY_ENERGY_FRAC * total:
            break
        picks.append((kind, cell))
        picks = _refine_positions(probes, v, picks, rounds=1)
        resid = probes.joint_residual(v, picks)

    base = probes.joint_residual(v, picks)
    base_rn = float(base @ base)
    kept = []
    for idx in range(len(picks)):
        others = [p for i, p in enumerate(picks) if i != idx]
        resid = probes.joint_residual(v, others)
        if float(resid @ resid) - base_rn >= PRUNE_ENERGY_FRAC * total:
            kept.append(picks[idx])
    return _refine_positions(probes, v, kept) if kept else kept


def _rescale_unit(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def _sharpen(values: np.ndarray, theta: float = DEFAULT_THETA) -> np.ndarray:
    """Monotone power rescale so the default cutoff keeps a compact set."""
    q = float(np.quantile(values, SHARPEN_QUANTILE))
    if 0.0 < q < 1.0:
        power = math.log(theta) / math.log(q)
        if power > 1.0:
            values = values ** power
    return values


def compute_index(delta_f: list[BoundaryData], sampling_grid: StaggeredGrid,
                  background_sigma: float = 1.0,
                  background_mu: float = 1.0) -> IndexResult:
    """Monopole and dipole index fields from scattered boundary data.

    Each excitation's data is low-pass filtered on the boundary,
    decomposed into fitted monopole/dipole parts, and the per-family
    normalized pairings (computed on the data purged of the other
    family) are summed over excitations, rescaled to [0, 1] and
    sharpened.  phi_mu collects the monopole response, phi_sigma the
    dipole response; a family absent from every excitation comes back
    identically zero.
    """
    if background_sigma <= 0 or background_mu <= 0:
        raise ValueError("background coefficients must be positive")
    if not delta_f:
        raise EmptyDataError("no scattered data supplied")
    if all(np.abs(d.values).max() == 0.0 for d in delta_f):
        raise EmptyDataError("scattered data is identically zero")

    data_grid = delta_f[0].grid
    probes = _ProbeFamily(data_grid, background_sigma, background_mu)
    n = data_grid.n
    acc_mu = np.zeros(n * n)
    acc_sigma = np.zeros(n * n)
    any_mu = any_sigma = False
    for d in delta_f:
        v = _lowpass(d.values)
        if float(v @ v) == 0.0:
            continue
        picks = _fit_sources(probes, v)
        has_mono = any(kind == "m" for kind, _ in picks)
        has_dip = any(kind == "d" for kind, _ in picks)
        mono_part, dip_part, resid = probes.joint_parts(v, picks)
        v_mu = mono_part + resid
        v_sigma = dip_part + resid
        if has_mono and float(v_mu @ v_mu) > 0:
            acc_mu += probes.mono_pairing(v_mu)
            any_mu = True
        if has_dip and float(v_sigma @ v_sigma) > 0:
            acc_sigma += probes.dip_pairing(v_sigma)
            any_sigma = True

    phi_mu = _sharpen(_rescale_unit(acc_mu)) if any_mu else np.zeros(n * n)
    phi_sigma = _sharpen(_rescale_unit(acc_sigma)) if any_sigma else np.zeros(n * n)
    phi_mu = phi_mu.reshape(n, n)
    phi_sigma = phi_sigma.reshape(n, n)
    if sampling_grid.n != n:
        phi_mu = _resample(phi_mu, data_grid, sampling_grid)
        phi_sigma = _resample(phi_sigma, data_grid, sampling_grid)
    return IndexResult(phi_sigma=ScalarField(sampling_grid, phi_sigma),
                       phi_mu=ScalarField(sampling_grid, phi_mu))


def _resample(values: np.ndarray, src: StaggeredGrid, dst: StaggeredGrid) -> np.ndarray:
    coords = dst.cell_coords_1d()
    idx = np.clip((coords * src.n).astype(int), 0, src.n - 1)
    return values[np.ix_(idx, idx)]


def threshold_subdomain(phi: ScalarField, theta: float) -> SubdomainMask:
    """Cells where the index meets the cutoff: D = {phi >= theta}."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    mask = SubdomainMask(phi.grid, phi.values >= theta)
    if mask.is_empty:
        warnings.warn("thresholded subdomain is empty; the initial guess "
                      "falls back to the background", stacklevel=2)
    return mask


def build_initial_guess(phi: ScalarField, mask: SubdomainMask, c_phi: float,
                        background: float) -> ScalarField:
    """Scale the index inside the subdomain, background elsewhere."""
    if c_phi <= 0:
        raise ValueError("c_phi must be positive")
    if phi.grid.n != mask.grid.n:
        raise ValueError("index field and mask grids differ")
    out = np.full_like(phi.values, float(background))
    out[mask.mask] = c_phi * phi.values[mask.mask]
    return ScalarField(phi.grid, out)


def argmax_location(phi: ScalarField) -> tuple[float, float]:
    """Cell-center coordinates of the index maximum."""
    i, j = np.unravel_index(int(np.argmax(phi.values)), phi.values.shape)
    h = phi.grid.h
    return ((i + 0.5) * h, (j + 0.5) * h)
