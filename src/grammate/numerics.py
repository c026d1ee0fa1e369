"""
Small dense singular value decomposition and its uses: flipping signs of
singular values, distinct-spectrum detection, and reconstructing (0,1)
matrices from their two Gram projections.

The SVD is LAPACK's, through numpy; with BLAS on one thread identical
inputs give bitwise-identical output.  Every tolerance argument must be
finite, positive and at most 1e-3; values below 1e-12, which rounding noise
alone can exceed, are raised to it.  The ceiling keeps a numeric check from
accepting what the exact integer checks reject: at a tolerance near 1 a
near-miss reads as a match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import BinaryMatrix, _in_range

DEFAULT_TOL = 1e-9
DEFAULT_REL_TOL = 1e-8
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


def _checked_tol(tol: float | None, default: float) -> float:
    """default for None; ValueError unless 0 < tol <= _TOL_CEILING (NaN
    fails both comparisons); at least _TOL_FLOOR."""
    if tol is None:
        return default
    if not (0 < tol <= _TOL_CEILING):
        raise ValueError(f"tolerance must be positive and at most {_TOL_CEILING:g}, got {tol}")
    return max(tol, _TOL_FLOOR)


def scaled_tol(A, tol: float | None = None) -> float:
    """Absolute tolerance scaled by the max-norm of A."""
    base = _checked_tol(tol, DEFAULT_TOL)
    a = _as_float(A)
    return base * max(1.0, float(np.abs(a).max()))


@dataclass(frozen=True)
class SvdBundle:
    """Full SVD factors: A = U diag(sigma) V^T with U, V square orthogonal."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    tol: float

    @property
    def rank(self) -> int:
        return int((self.sigma >= self.tol).sum())

    def compose(self, signs=None) -> np.ndarray:
        """Rebuild U S Sigma V^T, optionally negating selected values."""
        m, n = self.U.shape[0], self.V.shape[0]
        s = self.sigma.copy()
        if signs is not None:
            s = s * np.asarray(signs, dtype=np.float64)
        S = np.zeros((m, n))
        np.fill_diagonal(S, s)
        return self.U @ S @ self.V.T


@dataclass(frozen=True)
class SignPattern:
    """Which positive singular values to negate."""

    mask: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "mask", tuple(bool(b) for b in self.mask))


def svd(A, tol: float | None = None) -> SvdBundle:
    """Full SVD of a small dense matrix."""
    a = _as_float(A)
    U, sigma, Vt = np.linalg.svd(a, full_matrices=True)
    return SvdBundle(U=U, sigma=sigma, V=Vt.T, tol=scaled_tol(a, tol))


def flip_singular_signs(A, pattern: SignPattern, tol: float | None = None) -> np.ndarray:
    """Negate the selected positive singular values of A and recompose."""
    bundle = svd(A, tol)
    r = bundle.rank
    if len(pattern.mask) != r:
        raise ValueError(f"pattern length {len(pattern.mask)} != {r} positive values")
    if not any(pattern.mask):
        raise ValueError("pattern must select at least one singular value")
    signs = np.ones(len(bundle.sigma))
    for i, flip in enumerate(pattern.mask):
        if flip:
            signs[i] = -1.0
    return bundle.compose(signs)


def round_to_binary(B, tol: float | None = None):
    """Entrywise-nearest (0,1) matrix, or None when some entry is not
    within tolerance of {0,1}."""
    b = _as_float(B)
    t = _checked_tol(tol, DEFAULT_TOL)
    rounded = np.rint(b)
    if np.abs(b - rounded).max() > t:
        return None
    if not _in_range(rounded, 0, 1):
        return None
    return BinaryMatrix(rounded.astype(np.int8))


def distinct_singular_values(A, rel_tol: float | None = None) -> bool:
    """True iff consecutive sorted singular values are well separated."""
    rt = _checked_tol(rel_tol, DEFAULT_REL_TOL)
    sigma = svd(A).sigma
    return bool((sigma[:-1] - sigma[1:] > rt * np.maximum(1.0, sigma[:-1])).all())


def _canonical_sign(vecs: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first sizable component is positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-8)[0]
        if len(nz) and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def _positive_eigs(G: np.ndarray, tol: float):
    vals, vecs = np.linalg.eigh(G)
    keep = vals > tol
    return vals[keep], _canonical_sign(vecs[:, keep])


def reconstruct_from_grams(G_row, G_col, tol: float | None = None) -> list[BinaryMatrix]:
    """All (0,1) matrices B with BB^T = G_row and B^T B = G_col.

    Requires simple positive spectra.  Eigendecomposes both Grams, pairs the
    positive eigenvectors, and searches all 2^r sign assignments; every
    returned matrix is verified exactly in integers.
    """
    Gr = np.array(G_row, dtype=np.int64)
    Gc = np.array(G_col, dtype=np.int64)
    if Gr.shape[0] != Gr.shape[1] or Gc.shape[0] != Gc.shape[1]:
        raise ValueError("Gram matrices must be square")
    if (Gr != Gr.T).any() or (Gc != Gc.T).any():
        raise ValueError("Gram matrices must be symmetric")
    scale = max(1.0, float(np.abs(Gr).max()), float(np.abs(Gc).max()))
    t = _checked_tol(tol, DEFAULT_TOL) * scale

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
        cand = round_to_binary(B, 1e-6)
        if cand is None:
            continue
        b = cand.int64()
        if (b @ b.T == Gr).all() and (b.T @ b == Gc).all():
            found.add(cand)
    return sorted(found, key=lambda M: tuple(M.data.flatten().tolist()))
