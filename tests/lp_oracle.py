"""Brute-force LP oracle: enumerate all basic solutions of the inequality
system and minimize over the feasible ones.

Used by unit and acceptance tests as an independent check on the simplex
solver.  Only suitable for small, bounded instances.
"""

from itertools import combinations

import numpy as np
from scipy import sparse

from lcbands.lpsolve import CscRows


def rows_matrix(lp) -> sparse.csc_matrix:
    """A LinearProgram's rows, which it keeps as CSC arrays, as a scipy matrix."""
    rows = lp.rows
    return sparse.csc_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape)


def csc_rows(matrix) -> CscRows:
    """The inverse of rows_matrix: a scipy matrix as the CscRows of its tocsc()."""
    a = matrix.tocsc()
    return CscRows(a.data, a.indices.astype(np.intc), a.indptr.astype(np.intc), a.shape)


def lp_to_halfspaces(lp) -> tuple[np.ndarray, np.ndarray]:
    """All constraints of a LinearProgram as rows of A z <= b, bounds included."""
    a_parts = [rows_matrix(lp).toarray()]
    b_parts = [np.asarray(lp.rhs, float)]
    lo, up = lp.lower, lp.upper
    n = lp.num_vars
    eye = np.eye(n)
    fin_lo = np.isfinite(lo)
    if fin_lo.any():
        a_parts.append(-eye[fin_lo])
        b_parts.append(-lo[fin_lo])
    fin_up = np.isfinite(up)
    if fin_up.any():
        a_parts.append(eye[fin_up])
        b_parts.append(up[fin_up])
    return np.vstack(a_parts), np.concatenate(b_parts)


def enumerate_vertices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All feasible basic solutions of a z <= b (n-subsets of tight rows)."""
    k, n = a.shape
    idx = np.array(list(combinations(range(k), n)))
    mats = a[idx]
    rhss = b[idx]
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-9
    if not ok.any():
        return np.empty((0, n))
    verts = np.linalg.solve(mats[ok], rhss[ok][..., None])[..., 0]
    feas = (verts @ a.T <= b[None, :] + 1e-9).all(axis=1)
    return verts[feas]


def brute_force_min(lp) -> float:
    """Optimal objective by vertex enumeration; assumes bounded feasible lp."""
    a, b = lp_to_halfspaces(lp)
    verts = enumerate_vertices(a, b)
    if verts.shape[0] == 0:
        raise AssertionError("oracle found no feasible vertex")
    return float((verts @ lp.objective).min())
