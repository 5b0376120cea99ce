"""Assembled sparse forms of the MAC-grid operators; grid.py is their reference.

Both modules share one layout.  Cell fields ravel in C order
(values[i, j] -> i * n + j); face vectors are grid.FluxField's
x_values (n-1, n) and y_values (n, n-1), the interior faces only,
raveled in C order.  Boundary vectors use the 4n ordering of
grid.BoundaryData.

grid_operators(n) is the one operator layer of grid size n, built once
per process and shared: the maps Gx, Gy, Ax, Ay, T and N, each built on
first use with its arrays frozen, and the fixed five-point pattern.  The
matrices that change with the coefficients are face-weighted five-point
products filled by value on that pattern (GridOperators.five_point), in
O(nnz) with no sparse-sparse product: the forward operator
(diffusion_matrix), which the state block of optimizer.py also uses, and
the coefficient Hessians of optimizer.py.  No forward operator is
factored to synthesize data: ConstantDiffusionSolver solves a constant
medium's by the 2-D DCT and preconditions any other medium's.  _pcg is
the package's one preconditioned conjugate-gradient loop, which the
forward solve, the state block and the coefficient blocks share; it
returns its last iterate even when it fails, so a caller can report it.
"""

import functools

import numpy as np
# scipy.sparse.linalg before scipy.sparse and scipy.fft: in that order a
# fresh process that imports medrec after the standard library touches
# about 5,600 fewer pages (ru_minflt 12.2 k against 18.1 k) and spends
# about a tenth less CPU on the import.
from scipy.sparse.linalg import splu
import scipy.sparse as sp
from scipy.fft import dct, dctn, idctn

# splu(A, **SPD_LU) for the SPD matrices of optimizer.py built from these
# maps (the state block's shifted forward operator and the coefficient
# blocks' shifted Hessians): minimum degree on A^T + A, diagonal pivots only.
# For an SPD matrix that is Cholesky up to a diagonal scaling, so it is
# stable without pivoting; partial pivoting would discard the symmetric
# ordering and multiply the fill.
SPD_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))


def factor_spd(a: sp.csc_matrix):
    """splu(a, **SPD_LU) for the coefficient blocks of optimizer.py.

    A name of its own, apart from the state block's splu, so that either
    factorization can be traced or replaced alone.  Raises RuntimeError on
    a zero pivot, as splu does.
    """
    return splu(a, **SPD_LU)


class ConstantDiffusionSolver:
    """Exact solver of diffusion_matrix for constant sigma > 0, mu > 0.

    On the n x n Neumann grid that matrix is sigma n^2 (L x I + I x L)
    + mu I, L the 1-D Neumann second difference, which the orthonormal
    DCT-II diagonalizes along each axis (Schumann & Sweet, J. Comput.
    Phys. 20, 1976) with eigenvalues 2 - 2 cos(pi k / n).  A solve is
    one forward and one inverse 2-D transform, O(n^2 log n) per
    right-hand side, with nothing factored and n^2 doubles kept.  With
    C = transform, A^-1 = (C x C)^T diag(1 / eigenvalues) (C x C), so a
    Green's function is a product of n x n factors.

    It has three uses: the exact inverse of a constant medium's forward
    operator (forward.py's solve of it, and the sampling stage's probe
    family, built from C and the eigenvalues), the preconditioner of
    every other forward solve, and, with sigma = mu = 1, K^-1 for
    K = I + G^T G, which eliminates the flux from the state block of
    optimizer.py whatever the medium.
    """

    def __init__(self, n: int, sigma: float, mu: float):
        lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)
        self.n = n
        self.eigenvalues = sigma * n * n * (lam[:, None] + lam[None, :]) + mu

    @property
    def transform(self) -> np.ndarray:
        """C[p, i], the orthonormal 1-D DCT-II matrix solve() applies along
        each axis."""
        return dct(np.eye(self.n), type=2, norm="ortho", axis=0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for b of shape (n^2,) or (n^2, k), as SuperLU.solve."""
        n = self.n
        coef = dctn(b.reshape(n, n, -1), type=2, norm="ortho", axes=(0, 1))
        coef /= self.eigenvalues[:, :, None]
        return idctn(coef, type=2, norm="ortho", axes=(0, 1)).reshape(b.shape)


def _pcg(a, b: np.ndarray, precondition, cap: int, rtol: float,
         x0: np.ndarray | None = None) -> tuple:
    """Conjugate gradients on a x = b, preconditioned by an approximate
    inverse; a is any operator with a @ x.

    b is (N, k): each column runs its own recurrence, and the columns
    still running share one precondition call per iteration on an (N, m)
    array.  A column starts from its column of x0 (zero without one)
    plus the preconditioned residual there, and stops once its residual
    is at most rtol times its norm of b; a zero column stops at the start.

    Returns (x, iterations, converged): x the last iterate, the iterations
    the most over the columns, and converged False when cap iterations do
    not reach rtol or a direction has p^T a p <= 0, x then being the
    iterate before that direction.
    """
    x = precondition(b if x0 is None else b - a @ x0)
    if x0 is not None:
        x = x + x0
    r = b - a @ x
    stop = rtol * np.linalg.norm(b, axis=0)
    cols = np.flatnonzero(np.linalg.norm(r, axis=0) > stop)
    if not cols.size:
        return x, 0, True
    r = r[:, cols]
    z = precondition(r)
    p = z
    rz = np.einsum("ij,ij->j", r, z)
    for k in range(1, cap + 1):
        ap = a @ p
        curvature = np.einsum("ij,ij->j", p, ap)
        if not (curvature > 0.0).all():
            return x, k, False
        step = rz / curvature
        x[:, cols] += step * p
        r = r - step * ap
        going = np.linalg.norm(r, axis=0) > stop[cols]
        if not going.any():
            return x, k, True
        if not going.all():
            cols, r, p, rz = cols[going], r[:, going], p[:, going], rz[going]
        z = precondition(r)
        rz, rz_old = np.einsum("ij,ij->j", r, z), rz
        p = z + (rz / rz_old) * p
    return x, cap, False


def _frozen(m):
    """m in canonical form with its data, indices and indptr made read-only.

    Canonical (sorted, no duplicates), so no later scipy call sorts the
    frozen arrays in place.  Returns m.
    """
    m.sum_duplicates()
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    return m


def with_pattern(fmt, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple):
    """A matrix of class fmt on a shared, sorted, duplicate-free pattern.

    The flag spares scipy a format check, which would sort the shared
    (read-only) index arrays in place.
    """
    m = fmt((data, indices, indptr), shape=shape)
    m.has_canonical_format = True
    return m


def _two_point(n: int, left: float, right: float) -> sp.csr_matrix:
    """(n-1) x n map u -> left * u[k] + right * u[k+1]."""
    return sp.diags([np.full(n - 1, left), np.full(n - 1, right)], [0, 1],
                    shape=(n - 1, n), format="csr")


def _faces(w, shape: tuple) -> np.ndarray:
    """A scalar or a raveled face vector as a (rows, cols) face array."""
    return np.broadcast_to(w, (shape[0] * shape[1],)).reshape(shape)


class GridOperators:
    """The read-only operator layer of one grid size n.

    Each map is built on first use and then shared; an in-place write to
    its arrays raises ValueError.
    """

    def __init__(self, n: int):
        self.n = n
        self.h = 1.0 / n

    @functools.cached_property
    def gx(self) -> sp.csr_matrix:
        """Cell values to x-face differences divided by h."""
        n = self.n
        return _frozen(sp.kron(_two_point(n, -1.0, 1.0), sp.identity(n),
                              format="csr") / self.h)

    @functools.cached_property
    def gy(self) -> sp.csr_matrix:
        n = self.n
        return _frozen(sp.kron(sp.identity(n), _two_point(n, -1.0, 1.0),
                              format="csr") / self.h)

    @functools.cached_property
    def ax(self) -> sp.csr_matrix:
        """Cell values to their arithmetic mean on the x-faces."""
        n = self.n
        return _frozen(sp.kron(_two_point(n, 0.5, 0.5), sp.identity(n), format="csr"))

    @functools.cached_property
    def ay(self) -> sp.csr_matrix:
        n = self.n
        return _frozen(sp.kron(sp.identity(n), _two_point(n, 0.5, 0.5), format="csr"))

    @functools.cached_property
    def trace(self) -> sp.csr_matrix:
        """T: the 4n boundary-adjacent cell values (bottom, right, top, left)."""
        n = self.n
        cols = np.concatenate([
            np.arange(n) * n,                 # bottom: u[i, 0]
            (n - 1) * n + np.arange(n),       # right:  u[n-1, j]
            np.arange(n) * n + (n - 1),       # top:    u[i, n-1]
            np.arange(n),                     # left:   u[0, j]
        ])
        return _frozen(sp.csr_matrix((np.ones(4 * n), (np.arange(4 * n), cols)),
                                    shape=(4 * n, n * n)))

    @functools.cached_property
    def source(self) -> sp.csr_matrix:
        """N = T^T / h: boundary flux spread onto the adjacent cell layer."""
        return _frozen((self.trace.T / self.h).tocsr())

    @functools.cached_property
    def grad(self) -> sp.csr_matrix:
        """[Gx; Gy]: cell values to all interior-face differences."""
        return _frozen(sp.vstack([self.gx, self.gy], format="csr"))

    @functools.cached_property
    def stencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mask, indices, indptr) of the n^2 x n^2 five-point pattern.

        mask[i, j, k] says whether row (i, j) stores slot k, the column
        offsets (-n, -1, 0, 1, n) in that order: sorted CSR, and, the
        pattern being symmetric, equally its CSC.
        """
        n = self.n
        mask = np.ones((n, n, 5), dtype=bool)
        mask[0, :, 0] = mask[:, 0, 1] = mask[:, -1, 3] = mask[-1, :, 4] = False
        cells = np.arange(n * n).reshape(n, n, 1)
        indices = (cells + np.array([-n, -1, 0, 1, n]))[mask].astype(np.int32)
        indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=2).ravel())])
        stencil = mask, indices, indptr.astype(np.int32)
        for a in stencil:
            a.flags.writeable = False
        return stencil

    @functools.cached_property
    def stencil_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, diagonal): the row of each entry of five_point's data, and
        the positions of its diagonal entries."""
        _, indices, indptr = self.stencil
        rows = np.repeat(np.arange(self.n * self.n, dtype=np.int32), np.diff(indptr))
        diagonal = np.flatnonzero(rows == indices)
        for a in (rows, diagonal):
            a.flags.writeable = False
        return rows, diagonal

    def five_point(self, cell, grad=(0.0, 0.0), avg=(0.0, 0.0), fmt=sp.csr_matrix):
        """Gx^T Wx Gx + Gy^T Wy Gy + Ax^T Vx Ax + Ay^T Vy Ay + diag(cell).

        grad = (wx, wy) and avg = (vx, vy) are face weights, cell the cell
        diagonal, each a scalar or a raveled vector.  The data is filled in
        O(nnz) on the fixed five-point pattern, which keeps an entry that
        comes out zero as an explicit zero.  The matrix is symmetric, so
        fmt may be csr_matrix or csc_matrix alike.
        """
        n, inv_h2 = self.n, 1.0 / self.h ** 2
        x_shape, y_shape = (n - 1, n), (n, n - 1)
        # A two-point row (l0, l1) adds w l0 l1 off the diagonal and w l0^2
        # = w l1^2 to both of its cells: -1/h^2 and 1/h^2 for G, 1/4 for A.
        a_x, g_x = 0.25 * _faces(avg[0], x_shape), inv_h2 * _faces(grad[0], x_shape)
        a_y, g_y = 0.25 * _faces(avg[1], y_shape), inv_h2 * _faces(grad[1], y_shape)
        off_x, off_y, on_x, on_y = a_x - g_x, a_y - g_y, a_x + g_x, a_y + g_y
        diag = np.array(np.broadcast_to(cell, (n * n,)), dtype=float).reshape(n, n)
        diag[:-1, :] += on_x
        diag[1:, :] += on_x
        diag[:, :-1] += on_y
        diag[:, 1:] += on_y

        mask, indices, indptr = self.stencil
        full = np.empty((n, n, 5))
        full[1:, :, 0] = off_x
        full[:, 1:, 1] = off_y
        full[:, :, 2] = diag
        full[:, :-1, 3] = off_y
        full[:-1, :, 4] = off_x
        return with_pattern(fmt, full[mask], indices, indptr, (n * n, n * n))


@functools.lru_cache(maxsize=8)
def grid_operators(n: int) -> GridOperators:
    """The shared operator layer of grid size n (the last few sizes are kept)."""
    return GridOperators(n)


def diffusion_matrix(sigma: np.ndarray, mu: np.ndarray) -> sp.csc_matrix:
    """Gx^T Sx Gx + Gy^T Sy Gy + diag(mu), i.e. -div(sigma grad u) + mu u.

    sigma and mu are (n, n) cell arrays; Sx, Sy hold sigma averaged onto
    the interior faces.  With zero-flux boundary faces this is the
    Neumann operator: symmetric, and for sigma > 0, mu >= 0 positive
    definite exactly when mu is positive on some cell.
    """
    ops = grid_operators(sigma.shape[0])
    s = sigma.ravel()
    return ops.five_point(mu.ravel(), grad=(ops.ax @ s, ops.ay @ s),
                          fmt=sp.csc_matrix)
