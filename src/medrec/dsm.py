"""Direct sampling stage: index functions, thresholding, initial guesses.

Scattered boundary data (measured trace minus the homogeneous-background
trace) is decomposed against two probe families evaluated on the
boundary: discrete Green's functions of the background medium (monopole,
sensitive to absorption-type scatterers) and their spatial gradients
(dipole, sensitive to diffusion-type scatterers).  The background is
constant, so its operator is solved exactly by the 2-D DCT
(operators.ConstantDiffusionSolver) and nothing is factored, neither
here nor for the homogeneous reference traces.  The 4n-column probe
block is never formed: the pairing of the data with every probe is one
background solve, and the few probe rows the fit needs, as well as
every probe's norm, come from the Green's functions of the bottom
side's n faces by the square's symmetries (which a constant background
keeps exactly).  Those and their norms are products of the DCT's n x n
factors, so building them solves nothing.  Memory is n^3 doubles.

Because the two families are far from orthogonal on the boundary, the
raw normalized pairings alone mislocate whichever coefficient carries
the weaker response.  A small greedy fit (one atom of each family first,
then joint least-squares refits with local position refinement, then a
contribution-based prune) splits the data into monopole, dipole, and
residual parts.  The refinement moves one atom at a time to the cell of
its window where the joint fit leaves the least residual, and scores the
whole window at once: the other atoms' span is projected off by one SVD
cut where lstsq cuts, and each candidate's one or two projected columns
lower the residual in closed form.  A candidate column counts only if the
smallest singular value it adds to the basis, ||p|| / sqrt(1 + ||x||^2)
for a column B x + p, clears lstsq's cutoff, so the scores are lstsq's
residuals, rank-deficient candidates (a repeated pick) included.  Only
the greedy step, the prune and the final split call lstsq.  Each index
field is the normalized pairing of its family against the data with the
*other* family's fitted part removed.  Fields
are rescaled to [0, 1] and sharpened so that the default cutoff carves a
compact subdomain; a family with no significant fitted component yields
an identically zero index, which downstream turns into a plain
background initial guess.
"""

import math
from dataclasses import dataclass, field

import numpy as np
# Not called here; kept because the traced benchmark
# (bench/run.py --trace 1) wraps dsm.splu by name.
from scipy.sparse.linalg import splu  # noqa: F401

from .forward import MeasurementSet, generate_measurements
from .grid import BoundaryData, ScalarField, StaggeredGrid
from .operators import ConstantDiffusionSolver, grid_operators

# Tuning constants of the sampling stage (validated on the benchmark media).
SAMPLING_MARGIN = 0.1        # probes/index restricted to this interior margin
LOWPASS_MODES = 24           # boundary Fourier modes kept before fitting
SHARPEN_QUANTILE = 0.995     # index quantile mapped onto the default cutoff
GREEDY_ENERGY_FRAC = 1e-3    # minimum residual-energy gain to add an atom
PRUNE_ENERGY_FRAC = 2e-3     # minimum energy contribution to keep an atom
MAX_ATOMS = 8
REFINE_WINDOW = 4
DEFAULT_THETA = 0.55

_FAMILIES = {"m": "phi_mu", "d": "phi_sigma"}  # kind -> index field, in gains() order


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
    The medium is constant, so its forward solver is the DCT: nothing is
    factored.
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


# The Green's function of side k's face at cell (i, j) is bottom[a, c], with
# (a, c) named below (ri = n-1-i, rj = n-1-j).  Its x- and y-gradients are
# the bottom block's gradient along the axis named, times the sign: a mirror
# that reverses the differentiated axis flips it.
_SIDES = (  # (a, c, x gradient (axis, sign), y gradient (axis, sign))
    ("i", "j", (0, 1), (1, 1)),     # bottom
    ("j", "ri", (1, -1), (0, 1)),   # right
    ("i", "rj", (0, 1), (1, -1)),   # top
    ("j", "i", (1, 1), (0, 1)),     # left
)


class _ProbeFamily:
    """Background Green's functions of the 4n boundary faces, kept compact.

    Column k of the monopole family is G_k = A^-1 N e_k, the discrete
    Green's function of boundary face k on the constant background (A the
    background operator, N = grid_operators(n).source), solved by the DCT; the
    dipole family is its gradient, np.gradient with spacing h along x,
    then along y.  No (n^2, 4n) block is stored:

    * a pairing with a boundary vector r needs only the field A^-1 (N r)
      and its gradient, i.e. one background solve;
    * the rows at one cell, and the per-cell norms of the rows, follow
      from the bottom-side block `bottom[i, j, k] = G_k(i, j)` alone,
      because the square's symmetries (x <-> y, x -> 1 - x, y -> 1 - y),
      which a constant background keeps exactly, map every other side
      onto the bottom one.

    Nothing is solved for the block.  With C the orthonormal DCT-II
    matrix and lambda the eigenvalues of ConstantDiffusionSolver,
    G_k(i, j) = (1/h) sum_p C[p, i] M[p, j] C[p, k] for M = (C[:, 0] /
    lambda) @ C.  With D the matrix of np.gradient, the x-gradient puts
    E = C D^T in the place of the factor C[p, i], the y-gradient
    F = M D^T in that of M.  C's rows are orthonormal over k, so the
    squared norms over the bottom faces are (C o C)^T (M o M) / h^2, and
    likewise with E and F.

    With B = bottom, the monopole row at cell (i, j) is
    [B[i, j], B[j, n-1-i], B[i, n-1-j], B[j, i]] over the sides (bottom,
    right, top, left), and the dipole rows take the matching gradients
    of B, from its neighbouring rows only (with a sign flip wherever a
    mirror reverses the differentiated axis); _SIDES is that table.
    gather() reads it for many cells at once, one cell being the case
    columns() uses.  These are the same floating-point operations as on
    a full block, so rows come out bit-identical to one; the norms and
    pairings agree with it to rounding.  Memory is one (n, n, n) block,
    plus the rows fetched.
    """

    def __init__(self, grid: StaggeredGrid, background_sigma: float,
                 background_mu: float):
        n, h = grid.n, grid.h
        self.grid = grid
        self.source = grid_operators(n).source
        self.background = ConstantDiffusionSolver(n, background_sigma,
                                                  background_mu)
        c = self.background.transform
        mc = (c[:, 0] / self.background.eigenvalues) @ c / h  # M / h
        slope = np.gradient(np.eye(n), h, axis=0)  # np.gradient as a matrix D
        e, f = c @ slope.T, mc @ slope.T
        self.bottom = np.empty((n, n, n))
        for i in range(n):  # one x-row at a time: no n^3 temporary
            self.bottom[i] = (c[:, i, None] * mc).T @ c
        s, sxx, syy, sxy = ((a * b).T @ (p * q) for a, b, p, q in (
            (c, c, mc, mc), (e, e, mc, mc), (c, c, f, f), (e, c, mc, f)))
        # Squared row norms summed over the four sides (see columns()).
        self._mm = (s + s.T[::-1] + s[:, ::-1] + s.T).ravel()
        self._xx = (sxx + syy.T + syy.T[::-1] + sxx[:, ::-1]).ravel()
        self._yy = (syy + sxx.T + sxx.T[::-1] + syy[:, ::-1]).ravel()
        self._xy = (sxy + sxy.T - sxy.T[::-1] - sxy[:, ::-1]).ravel()
        self._rows = {}  # (kind, cell) -> rows, filled by columns()
        x, y = grid.cell_centers()
        m = SAMPLING_MARGIN
        self.interior = ((x > m) & (x < 1 - m) & (y > m) & (y < 1 - m)).ravel()

    def _stencil(self, a):
        """np.gradient's difference at index a (int or array): the
        neighbours (lo, hi) and the spacing, central inside and one-sided
        at the grid edge."""
        h, last = self.grid.h, self.grid.n - 1
        edge = (a == 0) | (a == last)
        return (np.maximum(a - 1, 0), np.minimum(a + 1, last),
                np.where(edge, h, 2.0 * h))

    def _products(self, r: np.ndarray):
        """(mono @ r, dip_x @ r, dip_y @ r) per cell, by one solve."""
        n, h = self.grid.n, self.grid.h
        u = self.background.solve(self.source @ r).reshape(n, n)
        return (u.ravel(), np.gradient(u, h, axis=0).ravel(),
                np.gradient(u, h, axis=1).ravel())

    def gains(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(monopole, dipole) share of ||r||^2 one atom explains per cell
        (zero in the margin), by one solve."""
        pm, px, py = self._products(r)
        det = np.maximum(self._xx * self._yy - self._xy ** 2, 1e-300)
        mono = pm ** 2 / self._mm
        dip = (self._yy * px * px - 2 * self._xy * px * py
               + self._xx * py * py) / det
        mono[~self.interior] = dip[~self.interior] = 0.0
        return mono, dip

    def pairings(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalized pairings per sampling cell (zero in the margin), by
        one solve: |<r, G_x>| for the monopole, and the larger of the two
        dipole components' for the dipole."""
        pm, px, py = self._products(r)
        r_norm = math.sqrt(float(r @ r))
        mono = np.abs(pm) / (r_norm * np.sqrt(self._mm))
        dip = np.maximum(np.abs(px) / (r_norm * np.sqrt(self._xx)),
                         np.abs(py) / (r_norm * np.sqrt(self._yy)))
        mono[~self.interior] = dip[~self.interior] = 0.0
        return mono, dip

    def columns(self, picks):
        """The picked atoms' boundary rows as the columns of one (4n, k)
        basis, one per monopole and two per dipole in picks order, and
        each pick's slice of those columns."""
        cols, spans = [], []
        for kind, cell in picks:
            rows = self._rows.get((kind, cell))
            if rows is None:
                rows = self._rows[kind, cell] = self.gather(kind, np.array([cell]))[0]
            spans.append(slice(len(cols), len(cols) + len(rows)))
            cols.extend(rows)
        return np.array(cols).T, spans

    def gather(self, kind: str, cells: np.ndarray) -> np.ndarray:
        """Boundary rows of one kind of atom at every cell given, in one read.

        Returns (len(cells), 1, 4n) for monopoles and (len(cells), 2, 4n)
        for dipoles (x, then y component), side by side in _SIDES order.
        """
        b, n = self.bottom, self.grid.n
        i, j = np.divmod(cells, n)
        at = {"i": i, "j": j, "ri": n - 1 - i, "rj": n - 1 - j}
        a = np.stack([at[row] for row, _, _, _ in _SIDES])  # (4, m)
        c = np.stack([at[col] for _, col, _, _ in _SIDES])
        m = len(cells)
        if kind == "m":
            return b[a, c].transpose(1, 0, 2).reshape(m, 1, 4 * n)
        lo_a, hi_a, step_a = self._stencil(a)
        lo_c, hi_c, step_c = self._stencil(c)
        ends = b[np.stack(((hi_a, lo_a), (a, a))),
                 np.stack(((c, c), (hi_c, lo_c)))]  # (axis, end, side, m, n)
        grad = (ends[:, 0] - ends[:, 1]) / np.stack((step_a, step_c))[..., None]
        rows = np.empty((m, 2, 4, n))
        for side, (_, _, x_row, y_row) in enumerate(_SIDES):
            for comp, (axis, sign) in enumerate((x_row, y_row)):
                g = grad[axis, side]
                rows[:, comp, side] = -g if sign < 0 else g
        return rows.reshape(m, 2, 4 * n)

    def window_residuals(self, v: np.ndarray, others, kind: str,
                         cells: np.ndarray) -> np.ndarray:
        """||v - fit||^2 of the joint least-squares fit of v on the picks
        `others` plus one `kind` atom, for each of `cells` in turn.

        No candidate is solved on its own.  One SVD of the others' basis B,
        cut where lstsq cuts (eps * 4n * s_max), projects their span off v
        and off every candidate column c at once: c = B x + p, with x the
        minimum-norm coefficients.  Each candidate's one or two projected
        columns, the second orthogonalized against the first, then lower
        the residual in closed form.  lstsq's rank rule carries over: the
        smallest singular value that c adds to the basis is
        ||p|| / sqrt(1 + ||x||^2) to first order, and s_max is that of B
        or ||c||, whichever is larger, to within sqrt(2).  A column below
        the cutoff adds nothing, so a candidate on a kept atom's cell, or
        in the others' span through any combination, scores as the fit
        without it.
        """
        tol = np.finfo(float).eps * len(v)
        cols = self.gather(kind, cells)  # (m, c, 4n)
        top = np.einsum("mkd,mkd->mk", cols, cols).max(axis=1)  # s_max^2
        coef, proj, resid = np.zeros(cols.shape[:2] + (0,)), cols, v
        if others:
            u, s, _ = np.linalg.svd(self.columns(others)[0], full_matrices=False)
            keep = s > tol * s[0]
            u, s = u[:, keep], s[keep]
            top = np.maximum(top, s[0] ** 2)
            along = cols @ u  # (m, c, rank)
            coef, proj = along / s, cols - along @ u.T
            resid = v - u @ (u.T @ v)
        score = np.full(len(cells), float(resid @ resid))
        taken = []  # per column taken: unit direction, x, ||p||
        for k in range(cols.shape[1]):
            p, x, weight = proj[:, k], coef[:, k], 1.0
            for q, qx, qn in taken:  # fit the first column's part too
                along = np.einsum("md,md->m", q, p)
                alpha = along / qn
                p = p - along[:, None] * q
                x = x - alpha[:, None] * qx
                weight = weight + alpha ** 2
            pp = np.einsum("md,md->m", p, p)
            weight = weight + np.einsum("mr,mr->m", x, x)
            adds = pp > tol * tol * top * weight
            norm = np.sqrt(np.where(adds, pp, np.inf))
            q = p / norm[:, None]  # zero where the column adds nothing
            score -= (q @ resid) ** 2
            taken.append((q, x, norm))
        return score

    def joint_parts(self, v: np.ndarray, picks):
        """Joint least-squares split of v: the fitted part of each family
        that picks hold (kind -> part, in _FAMILIES order), the residual,
        and the coefficients in columns() order."""
        parts = {kind: np.zeros_like(v) for kind in _FAMILIES
                 if any(k == kind for k, _ in picks)}
        if not picks:
            return parts, v, np.zeros(0)
        basis, spans = self.columns(picks)
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        for (kind, _), span in zip(picks, spans):
            for c, col in zip(coef[span], basis.T[span]):
                parts[kind] += c * col
        resid = v
        for part in parts.values():
            resid = resid - part
        return parts, resid, coef

    def joint_residual(self, v, picks):
        return self.joint_parts(v, picks)[1]


def _lowpass(values: np.ndarray) -> np.ndarray:
    spectrum = np.fft.rfft(values)
    spectrum[LOWPASS_MODES:] = 0.0
    return np.fft.irfft(spectrum, len(values))


def _window_cells(probes: _ProbeFamily, cell: int) -> np.ndarray:
    """Sampling cells within REFINE_WINDOW rows and columns of cell, row
    offset outer and column offset inner, clipped to the grid and to the
    sampling margin."""
    n = probes.grid.n
    ci, cj = divmod(cell, n)
    offsets = np.arange(-REFINE_WINDOW, REFINE_WINDOW + 1)
    ii, jj = np.meshgrid(ci + offsets, cj + offsets, indexing="ij")
    inside = (ii >= 0) & (ii < n) & (jj >= 0) & (jj < n)
    cells = (ii * n + jj)[inside]
    return cells[probes.interior[cells]]


def _refine_positions(probes: _ProbeFamily, v: np.ndarray, picks,
                      rounds: int = 3):
    """Coordinate descent of atom positions against the joint residual.

    Each atom in turn moves to the cell of its window whose joint fit with
    the other atoms leaves the least residual, the first such cell in
    _window_cells' order, as a per-candidate loop takes its first strict
    minimum.  _ProbeFamily.window_residuals scores the whole window at
    once: one SVD projects the other atoms' span off, and each candidate's
    projected columns are scored in closed form.  A column counts only if
    the singular value it adds clears lstsq's cutoff, so every score is
    the lstsq residual, and a candidate on a kept atom's cell scores as
    the fit without it.  An atom whose window holds no sampling cell stays
    where it is.
    """
    for _ in range(rounds):
        changed = False
        for idx, (kind, cell) in enumerate(picks):
            cells = _window_cells(probes, cell)
            if not len(cells):
                continue
            others = picks[:idx] + picks[idx + 1:]
            rn = probes.window_residuals(v, others, kind, cells)
            best = (kind, int(cells[np.argmin(rn)]))
            changed |= best != picks[idx]
            picks[idx] = best
        if not changed:
            break
    return picks


def _strongest(probes: _ProbeFamily, r: np.ndarray, kinds: str = "dm"):
    """(kind, cell, gain) of the one atom of the families in kinds that
    explains the largest share of ||r||^2; the dipole wins a tie."""
    gains = dict(zip(_FAMILIES, probes.gains(r)))
    kind = max((k for k in "dm" if k in kinds), key=lambda k: gains[k].max())
    return kind, int(np.argmax(gains[kind])), float(gains[kind].max())


def _fit_sources(probes: _ProbeFamily, v: np.ndarray):
    """Greedy monopole/dipole decomposition with joint refits.

    Starts with the best atom of each family (so neither can silently
    absorb the other), grows while an atom still explains a meaningful
    share of the data, and finally prunes atoms whose removal barely
    changes the fit, which strips the phantom family on single-family
    media.
    """
    total = float(v @ v)
    picks = [_strongest(probes, v)[:2]]
    picks.append(_strongest(probes, probes.joint_residual(v, picks),
                            "dm".replace(picks[0][0], ""))[:2])
    picks = _refine_positions(probes, v, picks)
    resid = probes.joint_residual(v, picks)
    for _ in range(MAX_ATOMS - 2):
        kind, cell, gain = _strongest(probes, resid)
        if gain < GREEDY_ENERGY_FRAC * total:
            break
        picks.append((kind, cell))
        picks = _refine_positions(probes, v, picks, rounds=1)
        resid = probes.joint_residual(v, picks)

    base_rn = float(resid @ resid)      # resid: the joint residual of picks
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
    basis, spans = probes.columns(picks)
    atoms = []
    for (kind, cell), span in zip(picks, spans):
        c = coef[span]
        part = basis[:, span] @ c
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
    summed = {}  # kind -> its pairings summed over the excitations
    atoms = []
    for d in delta_f:
        v = _lowpass(d.values)
        if float(v @ v) == 0.0:
            atoms.append([])
            continue
        picks = _fit_sources(probes, v)
        parts, resid, coef = probes.joint_parts(v, picks)
        atoms.append(_describe(probes, v, picks, coef))
        for kind, part in parts.items():
            purged = part + resid  # the data less the other family's part
            if float(purged @ purged) > 0:
                pairing = dict(zip(_FAMILIES, probes.pairings(purged)))[kind]
                summed[kind] = summed.get(kind, 0.0) + pairing

    return IndexResult(atoms=atoms, **{
        name: ScalarField(grid, _sharpen(_rescale_unit(summed[kind])).reshape(grid.n, -1))
        if kind in summed else ScalarField.zeros(grid) for kind, name in _FAMILIES.items()})


def threshold_subdomain(phi: ScalarField, theta: float) -> SubdomainMask:
    """Cells where the index meets the cutoff: D = {phi >= theta}."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return SubdomainMask(phi.grid, phi.values >= theta)


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
