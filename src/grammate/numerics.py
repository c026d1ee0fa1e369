"""
Small dense singular value decomposition and its uses: distinct-spectrum
detection and reconstructing (0,1) matrices from their two Gram
projections.

The SVD is LAPACK's, through numpy; with BLAS on one thread identical
inputs give bitwise-identical output.  Every verdict rests on an exact
integer check, and the floats only cross-check it or propose candidates, so
each tolerance here is a module constant.  The one argument left is
`gram.convertibility`'s, read through `scaled_tol`: it must be finite,
positive and at most 1e-3, and values below 1e-12, which rounding noise
alone can exceed, are raised to it.  The ceiling keeps a numeric check from
accepting what the exact integer checks reject: at a tolerance near 1 a
near-miss reads as a match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import BinaryMatrix, _in_range

DEFAULT_TOL = 1e-9  # absolute, scaled by the max-norm of the input
_REL_TOL = 1e-8  # least relative gap between distinct singular values
_ROUND_TOL = 1e-6  # farthest a candidate entry may lie from {0,1}
_TOL_FLOOR = 1e-12
_TOL_CEILING = 1e-3


class DegenerateSpectrumError(ValueError):
    """A positive eigenvalue has multiplicity > 1; reconstruction unsupported."""


class SpectraMismatchError(ValueError):
    """Nonzero spectra of the two Gram matrices disagree."""


def _as_float(A) -> np.ndarray:
    if isinstance(A, np.ndarray):
        return A.astype(np.float64)
    if hasattr(A, "data"):
        return A.data.astype(np.float64)
    return np.array(A, dtype=np.float64)


def scaled_tol(A, tol: float | None = None) -> float:
    """Absolute tolerance (DEFAULT_TOL for None) scaled by the max-norm of A.

    ValueError unless 0 < tol <= _TOL_CEILING (NaN fails both comparisons);
    a tol below _TOL_FLOOR is raised to it.
    """
    if tol is None:
        tol = DEFAULT_TOL
    elif not (0 < tol <= _TOL_CEILING):
        raise ValueError(f"tolerance must be positive and at most {_TOL_CEILING:g}, got {tol}")
    return max(tol, _TOL_FLOOR) * max(1.0, float(np.abs(_as_float(A)).max()))


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


def round_to_binary(B):
    """Entrywise-nearest (0,1) matrix, or None when some entry is farther
    than _ROUND_TOL from {0,1}."""
    b = _as_float(B)
    rounded = np.rint(b)
    if np.abs(b - rounded).max() > _ROUND_TOL:
        return None
    if not _in_range(rounded, 0, 1):
        return None
    return BinaryMatrix(rounded.astype(np.int8))


def distinct_singular_values(A) -> bool:
    """True iff consecutive sorted singular values are well separated."""
    sigma = svd(A).sigma
    return bool((sigma[:-1] - sigma[1:] > _REL_TOL * np.maximum(1.0, sigma[:-1])).all())


def _canonical_sign(vecs: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first sizable component is positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        if len(nz) and col[nz[0]] < 0:
            out[:, j] = -col
    return out


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


def _positive_eigs(G: np.ndarray, tol: float):
    vals, vecs = np.linalg.eigh(G)
    keep = vals > tol
    return vals[keep], _canonical_sign(vecs[:, keep])


def reconstruct_from_grams(G_row, G_col) -> list[BinaryMatrix]:
    """All (0,1) matrices B with BB^T = G_row and B^T B = G_col.

    Requires simple positive spectra.  Eigendecomposes both Grams, pairs the
    positive eigenvectors, and searches all 2^r sign assignments; every
    returned matrix is verified exactly in integers.
    """
    Gr, Gc = _int_gram(G_row), _int_gram(G_col)
    if any(g.ndim != 2 or g.shape[0] != g.shape[1] for g in (Gr, Gc)):
        raise ValueError("Gram matrices must be 2-D and square")
    if (Gr != Gr.T).any() or (Gc != Gc.T).any():
        raise ValueError("Gram matrices must be symmetric")
    scale = max(1.0, float(np.abs(Gr).max()), float(np.abs(Gc).max()))
    t = DEFAULT_TOL * scale

    rvals, rvecs = _positive_eigs(Gr.astype(np.float64), t)
    cvals, cvecs = _positive_eigs(Gc.astype(np.float64), t)
    if len(rvals) != len(cvals) or (len(rvals) and np.abs(rvals - cvals).max() > t):
        raise SpectraMismatchError("spectra mismatch")
    for vals in (rvals, cvals):
        for i in range(len(vals) - 1):
            if vals[i + 1] - vals[i] <= t:
                raise DegenerateSpectrumError("degenerate spectrum unsupported")

    r = len(rvals)
    roots = np.sqrt(rvals)
    found: set[BinaryMatrix] = set()
    for bits in range(1 << r):
        B = np.zeros((Gr.shape[0], Gc.shape[0]))
        for i in range(r):
            s = -1.0 if (bits >> i) & 1 else 1.0
            B += s * roots[i] * np.outer(rvecs[:, i], cvecs[:, i])
        cand = round_to_binary(B)
        if cand is None:
            continue
        b = cand.int64()
        if (b @ b.T == Gr).all() and (b.T @ b == Gc).all():
            found.add(cand)
    return sorted(found, key=lambda M: tuple(M.data.flatten().tolist()))
