"""
Small dense singular value decomposition and its uses: distinct-spectrum
detection, and the checked entry point of reconstructing (0,1) matrices
from their two Gram matrices by gale_ryser's exact search, no float read.

The SVD is LAPACK's, through numpy; with BLAS on one thread identical
inputs give bitwise-identical output.  The SVD only reports values:
`gram.convertibility` decides all seven of its conditions in integers.  The
last float predicate that decides anything is `distinct_singular_values`,
the precondition of `iso.iso_distinct_sv`, under the module constant
`_REL_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gale_ryser
from .matrix_core import BinaryMatrix

_REL_TOL = 1e-8  # least relative gap between distinct singular values


def _as_float(A) -> np.ndarray:
    if isinstance(A, np.ndarray):
        return A.astype(np.float64)
    if hasattr(A, "data"):
        return A.data.astype(np.float64)
    return np.array(A, dtype=np.float64)


@dataclass(frozen=True)
class SvdBundle:
    """Full SVD factors: A = U diag(sigma) V^T with U, V square orthogonal."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


def svd(A) -> SvdBundle:
    """Full SVD of a small dense matrix."""
    U, sigma, Vt = np.linalg.svd(_as_float(A), full_matrices=True)
    return SvdBundle(U=U, sigma=sigma, V=Vt.T)


def distinct_singular_values(A) -> bool:
    """True iff consecutive sorted singular values are well separated."""
    sigma = svd(A).sigma
    return bool((sigma[:-1] - sigma[1:] > _REL_TOL * np.maximum(1.0, sigma[:-1])).all())


def _int_gram(G) -> np.ndarray:
    """G as an int64 array; ValueError unless every entry is a finite
    integer, checked before any cast could truncate it."""
    g = np.asarray(G)
    if g.dtype.kind in "bi":
        return g.astype(np.int64)
    f = g.astype(np.float64)
    with np.errstate(invalid="ignore"):
        out = f.astype(np.int64)
    # NaN, infinities, fractions and values beyond int64 do not survive the cast
    if not (out == f).all():
        raise ValueError("Gram entries must be integers")
    return out


def reconstruct_from_grams(G_row, G_col) -> list[BinaryMatrix]:
    """gale_ryser.matrices_with_grams at its DEFAULT_MATE_NODE_CAP, read per
    call, after a ValueError unless both Grams are 2-D, square, symmetric
    and integral.  Repeated eigenvalues need no special case, and Grams no
    matrix has, mismatched spectra among them, give []."""
    Gr, Gc = _int_gram(G_row), _int_gram(G_col)
    if any(g.ndim != 2 or g.shape[0] != g.shape[1] for g in (Gr, Gc)):
        raise ValueError("Gram matrices must be 2-D and square")
    if (Gr != Gr.T).any() or (Gc != Gc.T).any():
        raise ValueError("Gram matrices must be symmetric")
    return gale_ryser.matrices_with_grams(Gr, Gc, gale_ryser.DEFAULT_MATE_NODE_CAP)
