"""Assembled sparse forms of the MAC-grid operators; grid.py is their reference.

Cell fields ravel in C order (values[i, j] -> i * n + j); face vectors
hold the interior faces x_values[1:n, :] and y_values[:, 1:n], raveled
in C order, since admissible fluxes vanish on boundary-normal faces.
Boundary vectors use the 4n ordering of grid.BoundaryData.
"""

import numpy as np
import scipy.sparse as sp

# splu(A, **SPD_LU) for the SPD matrices built from these maps (the state
# block's normal matrix, the probe family's background operator): minimum
# degree on A^T + A, diagonal pivots only.  For an SPD matrix that is
# Cholesky up to a diagonal scaling, so it is stable without pivoting;
# partial pivoting would discard the symmetric ordering and multiply the fill.
SPD_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))


def _two_point(n: int, left: float, right: float) -> sp.csr_matrix:
    """(n-1) x n map u -> left * u[k] + right * u[k+1]."""
    return sp.diags([np.full(n - 1, left), np.full(n - 1, right)], [0, 1],
                    shape=(n - 1, n), format="csr")


def face_gradient(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(Gx, Gy): cell values to interior-face differences divided by h."""
    h = 1.0 / n
    diff = _two_point(n, -1.0, 1.0)
    return (sp.kron(diff, sp.identity(n), format="csr") / h,
            sp.kron(sp.identity(n), diff, format="csr") / h)


def face_average(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(Ax, Ay): cell values to their arithmetic mean on interior faces."""
    avg = _two_point(n, 0.5, 0.5)
    return (sp.kron(avg, sp.identity(n), format="csr"),
            sp.kron(sp.identity(n), avg, format="csr"))


def trace(n: int) -> sp.csr_matrix:
    """T: the 4n boundary-adjacent cell values (bottom, right, top, left)."""
    cols = np.concatenate([
        np.arange(n) * n,                 # bottom: u[i, 0]
        (n - 1) * n + np.arange(n),       # right:  u[n-1, j]
        np.arange(n) * n + (n - 1),       # top:    u[i, n-1]
        np.arange(n),                     # left:   u[0, j]
    ])
    return sp.csr_matrix((np.ones(4 * n), (np.arange(4 * n), cols)),
                         shape=(4 * n, n * n))


def neumann_source(n: int) -> sp.csr_matrix:
    """N = T^T / h: boundary flux spread onto the adjacent cell layer."""
    h = 1.0 / n
    return (trace(n).T / h).tocsr()


def diffusion_matrix(sigma: np.ndarray, mu: np.ndarray) -> sp.csc_matrix:
    """Gx^T Sx Gx + Gy^T Sy Gy + diag(mu), i.e. -div(sigma grad u) + mu u.

    sigma and mu are (n, n) cell arrays; Sx, Sy hold sigma averaged onto
    the interior faces.  With zero-flux boundary faces this is the
    Neumann operator: symmetric, and singular exactly when mu == 0.
    """
    n = sigma.shape[0]
    gx, gy = face_gradient(n)
    ax, ay = face_average(n)
    s = sigma.ravel()
    return (gx.T @ sp.diags(ax @ s) @ gx + gy.T @ sp.diags(ay @ s) @ gy
            + sp.diags(mu.ravel())).tocsc()
