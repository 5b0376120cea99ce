"""Direct sampling stage: index functions, thresholding, initial guesses.

Scattered boundary data (measured trace minus the homogeneous-background
trace) is decomposed against two probe families evaluated on the
boundary: discrete Green's functions of the background medium (monopole,
sensitive to absorption-type scatterers) and their spatial gradients
(dipole, sensitive to diffusion-type scatterers).  Everything comes from
one sparse factorization of the background operator, which with positive
background coefficients is symmetric positive definite and so is
factorized pivot-free under a symmetric minimum-degree ordering
(operators.SPD_LU).  The 4n-column probe block is never formed: the
pairing of the data with every probe is one solve on that factor, and
the few probe rows the fit needs, as well as every probe's norm, come
from the Green's functions of the bottom side's n faces, ceil(n/2) of
them solved and the rest mirrored, by the square's symmetries (which a
constant background keeps exactly).  Memory is n^3 doubles, not 12 n^3.

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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Atom:
    """One source fitted to an excitation's scattered data.

    kind is "m" (monopole) or "d" (dipole), centre the (x, y) centre of
    its cell.  coef holds its joint least-squares coefficients: one for a
    monopole, the x and y components for a dipole.  share is the squared
    norm of its fitted boundary part over that of the (low-passed) data;
    the atoms are not orthogonal, so shares need not add up to one.
    """

    kind: str
    centre: tuple[float, float]
    coef: tuple[float, ...]
    share: float


@dataclass
class IndexResult:
    """Normalized index fields in [0, 1], one per coefficient family.

    atoms lists, per excitation, the atoms the fit kept (empty where the
    excitation's data are zero).
    """

    phi_sigma: ScalarField
    phi_mu: ScalarField
    atoms: list[list[Atom]] = field(default_factory=list)


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
                          excitations: list[BoundaryData],
                          oversample: int = 2) -> list[BoundaryData]:
    """Dirichlet traces of the constant-background medium, per excitation.

    Must be generated through the same oversampled pipeline as the
    measurements so the discretization bias cancels in the difference.
    """
    if background_sigma <= 0 or background_mu <= 0:
        raise ValueError("background coefficients must be positive")
    grid = excitations[0].grid
    sigma = ScalarField.constant(grid, background_sigma)
    mu = ScalarField.constant(grid, background_mu)
    sets = generate_measurements(sigma, mu, excitations, oversample=oversample)
    return [m.f for m in sets]


def scattered_data(measurements: list[MeasurementSet],
                   reference: list[BoundaryData]) -> list[BoundaryData]:
    """Per-excitation difference between measured and background traces."""
    if len(measurements) != len(reference):
        raise ValueError("one reference trace per measurement set is required")
    return [m.f - f_hom for m, f_hom in zip(measurements, reference)]


class _ProbeFamily:
    """Background Green's functions of the 4n boundary faces, kept compact.

    Column k of the monopole family is G_k = A^-1 N e_k, the discrete
    Green's function of boundary face k on the constant background (A the
    background operator, N = neumann_source(n)); the dipole family is
    its gradient, np.gradient with spacing h along x, then along y.  No
    (n^2, 4n) block is stored:

    * a pairing with a boundary vector r needs only the field A^-1 (N r)
      and its gradient, i.e. one solve on the kept factor `lu`;
    * the rows at one cell, and the per-cell norms of the rows, follow
      from the bottom-side block `bottom[i, j, k] = G_k(i, j)` alone,
      because the square's symmetries (x <-> y, x -> 1 - x, y -> 1 - y),
      which a constant background keeps exactly, map every other side
      onto the bottom one.  By the x-mirror only ceil(n/2) bottom faces
      are solved.

    With B = bottom, the monopole row at cell (i, j) is
    [B[i, j], B[j, n-1-i], B[i, n-1-j], B[j, i]] over the sides (bottom,
    right, top, left), and the dipole rows take the matching gradients
    of B, from its neighbouring rows only (with a sign flip wherever a
    mirror reverses the differentiated axis).  These are the same
    floating-point operations as on a full block, so rows come out
    bit-identical to one; the norms and pairings agree with it to
    rounding.  Memory is one (n, n, n) block, plus the rows fetched.
    """

    def __init__(self, grid: StaggeredGrid, background_sigma: float,
                 background_mu: float):
        n, h = grid.n, grid.h
        self.grid = grid
        operator = diffusion_matrix(np.full((n, n), background_sigma),
                                    np.full((n, n), background_mu))
        self.source = neumann_source(n)
        self.lu = splu(operator, **SPD_LU)
        # Bottom face k is the source 1/h on cell (k, 0); face n - 1 - k
        # is its mirror image under x -> 1 - x.
        half = (n + 1) // 2
        solved = self.lu.solve(
            self.source[:, :half].toarray()).reshape(n, n, half)
        self.bottom = b = np.empty((n, n, n))
        b[:, :, :half] = solved
        b[:, :, half:] = solved[::-1, :, :n - half][:, :, ::-1]
        del solved
        s = np.einsum("ijk,ijk->ij", b, b)
        sxx, syy, sxy = (np.empty((n, n)) for _ in range(3))
        for i in range(n):  # one x-row at a time: no n^3 temporaries
            dx = self._slope(b, i)
            dy = np.gradient(b[i], h, axis=0)
            sxx[i] = np.einsum("jk,jk->j", dx, dx)
            syy[i] = np.einsum("jk,jk->j", dy, dy)
            sxy[i] = np.einsum("jk,jk->j", dx, dy)
        # Squared row norms summed over the four sides (see columns()).
        self._mm = (s + s.T[::-1] + s[:, ::-1] + s.T).ravel()
        self._xx = (sxx + syy.T + syy.T[::-1] + sxx[:, ::-1]).ravel()
        self._yy = (syy + sxx.T + sxx.T[::-1] + syy[:, ::-1]).ravel()
        self._xy = (sxy + sxy.T - sxy.T[::-1] - sxy[:, ::-1]).ravel()
        self._rows = {}  # (kind, cell) -> rows, filled by columns()
        x, y = grid.cell_centers()
        m = SAMPLING_MARGIN
        self.interior = ((x > m) & (x < 1 - m) & (y > m) & (y < 1 - m)).ravel()

    def _slope(self, block: np.ndarray, i: int) -> np.ndarray:
        """np.gradient(block, h, axis=0)[i], from the rows next to i only."""
        h, last = self.grid.h, len(block) - 1
        if i == 0:
            return (block[1] - block[0]) / h
        if i == last:
            return (block[last] - block[last - 1]) / h
        return (block[i + 1] - block[i - 1]) / (2.0 * h)

    def _pairings(self, r: np.ndarray):
        """(mono @ r, dip_x @ r, dip_y @ r) per cell, by one solve."""
        n, h = self.grid.n, self.grid.h
        u = self.lu.solve(self.source @ r).reshape(n, n)
        return (u.ravel(), np.gradient(u, h, axis=0).ravel(),
                np.gradient(u, h, axis=1).ravel())

    def mono_gain(self, r: np.ndarray) -> np.ndarray:
        pm, _, _ = self._pairings(r)
        out = pm ** 2 / self._mm
        out[~self.interior] = 0.0
        return out

    def dip_gain(self, r: np.ndarray) -> np.ndarray:
        _, px, py = self._pairings(r)
        det = np.maximum(self._xx * self._yy - self._xy ** 2, 1e-300)
        out = (self._yy * px * px - 2 * self._xy * px * py
               + self._xx * py * py) / det
        out[~self.interior] = 0.0
        return out

    def mono_pairing(self, r: np.ndarray) -> np.ndarray:
        """Normalized |<r, G_x>| per sampling cell (zero in the margin)."""
        pm, _, _ = self._pairings(r)
        r_norm = math.sqrt(float(r @ r))
        out = np.abs(pm) / (r_norm * np.sqrt(self._mm))
        out[~self.interior] = 0.0
        return out

    def dip_pairing(self, r: np.ndarray) -> np.ndarray:
        """Larger of the two normalized dipole-component pairings."""
        _, px, py = self._pairings(r)
        r_norm = math.sqrt(float(r @ r))
        px = np.abs(px) / (r_norm * np.sqrt(self._xx))
        py = np.abs(py) / (r_norm * np.sqrt(self._yy))
        out = np.maximum(px, py)
        out[~self.interior] = 0.0
        return out

    def columns(self, picks):
        """Boundary rows of the picked atoms: one per monopole, two per dipole."""
        cols, owners = [], []
        for kind, cell in picks:
            rows = self._rows.get((kind, cell))
            if rows is None:
                rows = self._rows[kind, cell] = self._atom_rows(kind, cell)
            cols.extend(rows)
            owners.extend([kind] * len(rows))
        return cols, owners

    def _atom_rows(self, kind: str, cell: int):
        b, n = self.bottom, self.grid.n
        i, j = divmod(cell, n)
        ri, rj = n - 1 - i, n - 1 - j
        if kind == "m":
            return [np.concatenate((b[i, j], b[j, ri], b[i, rj], b[j, i]))]
        dx = lambda a, c: self._slope(b[:, c], a)  # gradient of B along x
        dy = lambda a, c: self._slope(b[a], c)     # ... and along y
        return [np.concatenate((dx(i, j), -dy(j, ri), dx(i, rj), dy(j, i))),
                np.concatenate((dy(i, j), dx(j, ri), -dy(i, rj), dx(j, i)))]

    def joint_parts(self, v: np.ndarray, picks):
        """Joint least-squares split of v into (monopole, dipole, residual).

        The fitted coefficients, in columns() order, come fourth.
        """
        cols, owners = self.columns(picks)
        if not cols:
            return np.zeros_like(v), np.zeros_like(v), v, np.zeros(0)
        basis = np.array(cols).T
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        mono = np.zeros_like(v)
        dip = np.zeros_like(v)
        for col, owner, c in zip(cols, owners, coef):
            if owner == "m":
                mono += c * col
            else:
                dip += c * col
        return mono, dip, v - mono - dip, coef

    def joint_residual(self, v, picks):
        return self.joint_parts(v, picks)[2]


def _lowpass(values: np.ndarray) -> np.ndarray:
    spectrum = np.fft.rfft(values)
    spectrum[LOWPASS_MODES:] = 0.0
    return np.fft.irfft(spectrum, len(values))


def _refine_positions(probes: _ProbeFamily, v: np.ndarray, picks,
                      rounds: int = 3):
    """Coordinate descent of atom positions against the joint residual."""
    n = probes.grid.n
    for _ in range(rounds):
        changed = False
        for idx in range(len(picks)):
            kind, cell = picks[idx]
            ci, cj = divmod(cell, n)
            best_rn, best_pick = None, picks[idx]
            for di in range(-REFINE_WINDOW, REFINE_WINDOW + 1):
                for dj in range(-REFINE_WINDOW, REFINE_WINDOW + 1):
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


def _describe(probes: _ProbeFamily, v: np.ndarray, picks, coef) -> list[Atom]:
    """Atom records of one excitation's fit, from joint_parts' coefficients."""
    total = float(v @ v)
    n, h = probes.grid.n, probes.grid.h
    atoms, k = [], 0
    for kind, cell in picks:
        cols, _ = probes.columns([(kind, cell)])
        c = coef[k:k + len(cols)]
        k += len(cols)
        part = np.array(cols).T @ c
        i, j = divmod(cell, n)
        atoms.append(Atom(kind, ((i + 0.5) * h, (j + 0.5) * h),
                          tuple(float(x) for x in c), float(part @ part) / total))
    return atoms


def _rescale_unit(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def _sharpen(values: np.ndarray) -> np.ndarray:
    """Monotone power rescale so the default cutoff keeps a compact set."""
    q = float(np.quantile(values, SHARPEN_QUANTILE))
    if 0.0 < q < 1.0:
        power = math.log(DEFAULT_THETA) / math.log(q)
        if power > 1.0:
            values = values ** power
    return values


def compute_index(delta_f: list[BoundaryData], background_sigma: float = 1.0,
                  background_mu: float = 1.0) -> IndexResult:
    """Monopole and dipole index fields on the data grid.

    Each excitation's data is low-pass filtered on the boundary,
    decomposed into fitted monopole/dipole parts, and the per-family
    normalized pairings (computed on the data purged of the other
    family) are summed over excitations, rescaled to [0, 1] and
    sharpened.  phi_mu collects the monopole response, phi_sigma the
    dipole response; a family absent from every excitation comes back
    identically zero.  The fitted atoms are returned with the fields.
    """
    if background_sigma <= 0 or background_mu <= 0:
        raise ValueError("background coefficients must be positive")
    if not delta_f:
        raise EmptyDataError("no scattered data supplied")
    grid = delta_f[0].grid
    for d in delta_f[1:]:
        if d.grid != grid:
            raise ValueError(f"scattered data mix grids: n={grid.n} and "
                             f"n={d.grid.n}")
    if all(np.abs(d.values).max() == 0.0 for d in delta_f):
        raise EmptyDataError("scattered data is identically zero")

    probes = _ProbeFamily(grid, background_sigma, background_mu)
    n = grid.n
    acc_mu = np.zeros(n * n)
    acc_sigma = np.zeros(n * n)
    any_mu = any_sigma = False
    atoms = []
    for d in delta_f:
        v = _lowpass(d.values)
        if float(v @ v) == 0.0:
            atoms.append([])
            continue
        picks = _fit_sources(probes, v)
        has_mono = any(kind == "m" for kind, _ in picks)
        has_dip = any(kind == "d" for kind, _ in picks)
        mono_part, dip_part, resid, coef = probes.joint_parts(v, picks)
        atoms.append(_describe(probes, v, picks, coef))
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
    return IndexResult(phi_sigma=ScalarField(grid, phi_sigma.reshape(n, n)),
                       phi_mu=ScalarField(grid, phi_mu.reshape(n, n)),
                       atoms=atoms)


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
