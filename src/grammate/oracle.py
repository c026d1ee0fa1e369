"""
Ground truth for Gram mates: matrices_with_grams, the exact search for every
(0,1) matrix with two given Gram matrices, which its node cap makes safe at
any size, and at desk scale exhaustive enumeration of Gram pairs and a
harness that replays the library's invariants against enumerated corpora.

The search answers `reconstruct`, and less A it is enumerate_mates_of, as
the mates of A are the other matrices with A's Grams.  It and the scan raise
one OracleCapError, which the CLI reports as undecided.  Enumeration scans
every code of a shape and is capped at DEFAULT_CELL_CAP cells, so that its
Gram keys fit in memory.  The scan, _gram_pair_arrays, is where its exact
Gram check happens: two codes pair when their int8 Gram keys are equal,
exact under the cap.  The keys are batched int8 matmuls and the pairs of
each group are index arithmetic, so the scan makes no Python object per
code or per pair.  It returns arrays; GramPairs are built only by
enumerate_gram_pairs, and `grammate enumerate` prints straight from them.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .gram import GramPair, _check_binary, convertibility, is_gram_pair
from .matrix_core import BinaryMatrix, _gram, _gram_dtype, col_sums, row_sums, serialize_matrix
from .rank_forms import classify_rank1, classify_rank2

# The scan keeps one Gram key of m(m+1)/2 + n(n+1)/2 bytes for each of the
# 2^(mn) codes: 20 cells admit 4x5 and 5x4, while 25 would need about 11 GB
# of keys at 25x1.
DEFAULT_CELL_CAP = 20
DEFAULT_MATE_NODE_CAP = 10**7


class OracleCapError(RuntimeError):
    """Search space exceeds the configured cap."""


class TheoremViolation(AssertionError):
    """An invariant failed on an enumerated instance (counterexample inside)."""


@dataclass(frozen=True)
class EnumerationReport:
    scope: str
    total_pairs: int
    by_diff_rank: dict[int, int]
    tags: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0


_BLOCK = 1 << 16  # codes decoded per numpy pass; bounds the scan's temporaries


def _bits(codes: np.ndarray, m: int, n: int) -> np.ndarray:
    """The m x n (0,1) matrices of the codes; bit t is flat position t."""
    octets = codes.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=m * n, bitorder="little").view(np.int8).reshape(-1, m, n)


def _sums_match(sums: np.ndarray, want: tuple) -> np.ndarray:
    """Mask of the rows of sums that equal want; all False on a length mismatch."""
    if len(want) != sums.shape[1]:
        return np.zeros(len(sums), dtype=bool)
    return np.logical_and.reduce([sums[:, i] == v for i, v in enumerate(want)])


def _gram_pair_arrays(m: int, n: int, row_sums_filter=None, col_sums_filter=None) -> np.ndarray:
    """The (p, 2, m, n) int8 stack of every unordered Gram pair of shape
    m x n, in lexicographic bit order of the two codes.

    Matrices are encoded as mn-bit integers and decoded a block at a time
    into one (N, m, n) array.  The sum filters are array masks; both Grams
    come from one batched int8 matmul each, and codes are grouped by their
    upper triangles with one lexsort.  Pairs are taken within groups only:
    the groups of each size g get the triu_indices(g, 1) offsets at once,
    and one lexsort puts all pairs in order.  Equal keys are the exact Gram
    check, as int8 holds every Gram entry and every partial sum under the
    cell cap, and distinct codes are distinct matrices.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if m * n > DEFAULT_CELL_CAP:
        raise OracleCapError(f"{m}x{n} exceeds the {DEFAULT_CELL_CAP}-cell cap")
    rfilt = tuple(row_sums_filter) if row_sums_filter is not None else None
    cfilt = tuple(col_sums_filter) if col_sums_filter is not None else None

    # Gram entries and their partial sums are at most max(m, n) <= DEFAULT_CELL_CAP,
    # so the int8 matmuls cannot wrap
    rows_iu, cols_iu = np.triu_indices(m), np.triu_indices(n)
    kept, keys = [], []
    for start in range(0, 1 << (m * n), _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, 1 << (m * n)))
        a = _bits(codes, m, n)
        if rfilt is not None:
            keep = _sums_match(a.sum(axis=2), rfilt)
            a, codes = a[keep], codes[keep]
        if cfilt is not None:
            keep = _sums_match(a.sum(axis=1), cfilt)
            a, codes = a[keep], codes[keep]
        t = a.transpose(0, 2, 1)
        row_gram = (a @ t)[:, rows_iu[0], rows_iu[1]]
        col_gram = (t @ a)[:, cols_iu[0], cols_iu[1]]
        kept.append(codes)
        keys.append(np.concatenate([row_gram, col_gram], axis=1))
    codes, keys = np.concatenate(kept), np.concatenate(keys)

    # lexsort is stable, so the codes of each group stay ascending
    order = np.lexsort(keys.T)
    codes, keys = codes[order], keys[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    sizes = np.diff(np.r_[starts, len(codes)])
    # set() rather than np.unique, whose first call imports numpy.ma
    firsts, seconds = [np.zeros(0, dtype=codes.dtype)], [np.zeros(0, dtype=codes.dtype)]
    for g in sorted(set(sizes[sizes > 1].tolist())):
        i, j = np.triu_indices(g, 1)
        lo = starts[sizes == g][:, None]
        firsts.append(codes[lo + i].ravel())
        seconds.append(codes[lo + j].ravel())
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    order = np.lexsort((second, first))
    pairs = np.stack([first[order], second[order]], axis=1)
    return _bits(pairs.reshape(-1), m, n).reshape(len(pairs), 2, m, n)


def enumerate_gram_pairs(
    m: int,
    n: int,
    row_sums_filter=None,
    col_sums_filter=None,
) -> list[GramPair]:
    """All unordered Gram pairs of shape m x n, in lexicographic bit order.

    The pairs of _gram_pair_arrays, each passed through is_gram_pair.
    """
    out: list[GramPair] = []
    for a, b in _gram_pair_arrays(m, n, row_sums_filter, col_sums_filter):
        pair = is_gram_pair(BinaryMatrix(a), BinaryMatrix(b))
        if pair is None:  # same Grams and distinct
            raise RuntimeError("matrices with equal Gram matrices are not a Gram pair")
        out.append(pair)
    return out


_CHUNK = 1 << 16  # entries of a chunk's (F, K, n) temporaries


def _rows_with_sum(n: int, s: int) -> np.ndarray:
    """The (0,1) rows of length n with s ones, as the columns of an (n, K)
    array of matrix_core._gram_dtype(n)."""
    ones = list(itertools.combinations(range(n), s))
    rows = np.zeros((n, len(ones)), dtype=_gram_dtype(n))
    rows[np.array(ones, dtype=np.intp).ravel(), np.repeat(np.arange(len(ones)), s)] = 1
    return rows


def _unflagged(flags: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(F, K) mask of x_k^T flags_f x_k == 0 for (0,1) flags (F, n, n) and
    (0,1) columns x_k of x (n, K).  Exact in any float type: a float sum of
    non-negative integers is zero exactly when every term is."""
    n, k = x.shape
    w = (flags.reshape(-1, n) @ x).reshape(len(flags), n, k)
    return np.einsum("fjk,jk->fk", w, x) == 0


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


def matrices_with_grams(G_row, G_col, node_cap: int) -> list[BinaryMatrix]:
    """Every (0,1) matrix B with BB^T = G_row and B^TB = G_col, ascending by
    flattened entries, by a row-by-row frontier search.

    ValueError unless both Grams are integral (no cast truncates 1.5 to 1),
    2-D, square and symmetric.

    Row i is drawn from the K rows with sum G_row[i, i], and a chunk of F
    partial matrices P is expanded by all of them in one numpy step.  A
    candidate c is kept when its products with the rows above match G_row
    and the column residual R = G_col - P^TP stays within reach of the rows
    left: R >= 0 and R_jj + R_kk - R_jk <= rows left, where the left side
    counts the rows to come that hold j or k (at j = k, the column-sum
    bounds).  R is recomputed per chunk, never stored with the frontier,
    and c is tested against it by two quadratic forms: c covers j or k on
    every pair whose count equals the rows left, and holds no pair with
    R_jk = 0.  Leaves are kept when both Gram identities hold exactly.
    Chunks go depth first from an explicit stack of (level, frontier, chunk
    offset), so the depth, one level per row, is not bounded by Python's
    recursion limit.  F * max(K, n) * n is at most _CHUNK (or F = 1), which
    bounds the temporaries however wide a level grows.

    One node is one candidate row tried for one partial matrix, so a chunk
    at level i costs F * C(n, G_row[i, i]) nodes, as one-by-one
    backtracking would.  Each chunk is charged before it is built, and
    OracleCapError is raised exactly when the total exceeds node_cap.
    Grams that no matrix has at the root cost no node: a row sum below 0
    or above n, unequal traces, or a G_col outside the residual bounds.
    """
    gr, gc = _int_gram(G_row), _int_gram(G_col)
    if any(g.ndim != 2 or g.shape[0] != g.shape[1] for g in (gr, gc)):
        raise ValueError("Gram matrices must be 2-D and square")
    if (gr != gr.T).any() or (gc != gc.T).any():
        raise ValueError("Gram matrices must be symmetric")
    m, n = len(gr), len(gc)
    rs, cs = np.diagonal(gr), np.diagonal(gc)
    if ((rs < 0) | (rs > n)).any() or rs.sum() != cs.sum() \
            or (gc < 0).any() or (cs[:, None] + cs - gc > m).any():
        return []
    rs = rs.tolist()
    by_sum: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    found: list[BinaryMatrix] = []
    budget = node_cap

    # (level, frontier, chunk offset): the frontier holds partial matrices
    # with rows level.. zero, and its chunks from the offset on are to come
    stack = [(0, np.zeros((1, m, n), dtype=np.int8), 0)]
    while stack:
        i, front, lo = stack.pop()
        if i == m:
            b = front.astype(np.int64)
            bt = b.transpose(0, 2, 1)
            ok = (b @ bt == gr).all(axis=(1, 2)) & (bt @ b == gc).all(axis=(1, 2))
            found.extend(BinaryMatrix(x) for x in front[ok])
            continue
        s, k = rs[i], math.comb(n, rs[i])
        step = max(1, _CHUNK // (max(k, n) * n))
        f = front[lo:lo + step]
        if lo + step < len(front):
            stack.append((i, front, lo + step))
        budget -= len(f) * k
        if budget < 0:
            raise OracleCapError("Gram search exceeded the node cap")
        if s not in by_sum:
            rows = _rows_with_sum(n, s)
            by_sum[s] = rows, 1 - rows
        cands, gaps = by_sum[s]
        placed = f[:, :i].reshape(-1, n)
        wide = placed.astype(np.int64).reshape(len(f), i, n)
        r = gc - wide.transpose(0, 2, 1) @ wide
        d = np.diagonal(r, axis1=1, axis2=2)
        ok = _unflagged(d[:, :, None] + d[:, None, :] - r == m - i, gaps)
        ok &= _unflagged(r == 0, cands)
        # products of (0,1) rows of length n: exact by matrix_core._gram's bound
        prod = (placed @ cands).reshape(len(f), i, k)
        ok &= (prod == gr[i, :i, None]).all(axis=1)
        fi, ki = np.nonzero(ok)
        if len(fi):
            child = f[fi]
            child[:, i] = cands.T[ki]
            stack.append((i + 1, child, 0))

    found.sort(key=lambda M: tuple(M.data.flatten().tolist()))
    return found


def enumerate_mates_of(A: BinaryMatrix, node_cap: int = DEFAULT_MATE_NODE_CAP) -> list[BinaryMatrix]:
    """Every B != A with (A, B) a Gram pair: matrices_with_grams(AA^T, A^TA)
    less A, with its node accounting, on matrix_core._gram's exact BLAS
    products.  Its column-residual prune only removes partial matrices, so
    no input costs more nodes than under the column-sum bounds alone: the
    7x7 rank-1 example costs 1,477 nodes instead of 48,510.  ValueError
    unless A is a BinaryMatrix, as Gram mates are (0,1) matrices."""
    _check_binary(A)
    own = A.data.tobytes()  # the search's matrices are int8 and of A's shape
    return [B for B in matrices_with_grams(_gram(A.data), _gram(A.data.T), node_cap)
            if B.data.tobytes() != own]


def _violation(tag: str, *mats: BinaryMatrix) -> TheoremViolation:
    blobs = "\n".join(serialize_matrix(M) for M in mats)
    return TheoremViolation(f"{tag}\n{blobs}")


_SCOPES = ("rank-classification", "convertibility", "identity-mates", "all")


def validate_theorems(scope: str = "all") -> EnumerationReport:
    """Replay the library's structural invariants over enumerated corpora.

    Scopes: "rank-classification" (every enumerated pair with diff rank one
    or two classifies), "convertibility" (the seven-condition report runs
    without internal disagreement), "identity-mates" (mates of I4 are the 23
    non-identity permutations, 9 of them convertible), or "all".  Any other
    scope is a ValueError, so a misspelt one cannot pass by checking nothing.
    """
    if scope not in _SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {', '.join(_SCOPES)}")
    t0 = time.perf_counter()
    run_all = scope == "all"
    tags: dict[str, int] = {}
    by_rank: dict[int, int] = {}
    total = 0

    corpora = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]
    pairs: list[GramPair] = []
    if run_all or scope in ("rank-classification", "convertibility"):
        for m, n in corpora:
            pairs.extend(enumerate_gram_pairs(m, n))
    for p in pairs:
        total += 1
        by_rank[p.diff_rank] = by_rank.get(p.diff_rank, 0) + 1
        if row_sums(p.A) != row_sums(p.B) or col_sums(p.A) != col_sums(p.B):
            raise _violation("sum vectors differ", p.A, p.B)
        if run_all or scope == "rank-classification":
            if p.diff_rank == 1 and classify_rank1(p.diff()) is None:
                raise _violation("rank-1 difference did not classify", p.A, p.B)
            if p.diff_rank == 2 and classify_rank2(p.diff()) is None:
                raise _violation("rank-2 difference did not classify", p.A, p.B)
            tags["classified"] = tags.get("classified", 0) + 1
        if run_all or scope == "convertibility":
            rep = convertibility(p)  # raises on internal disagreement
            if rep.convertible:
                tags["convertible"] = tags.get("convertible", 0) + 1

    if run_all or scope == "identity-mates":
        i4 = BinaryMatrix(np.eye(4, dtype=np.int8))
        mates = enumerate_mates_of(i4)
        if len(mates) != 23:
            raise _violation(f"expected 23 mates of I4, found {len(mates)}", i4)
        conv = 0
        for b in mates:
            pair = is_gram_pair(i4, b)
            if convertibility(pair).convertible:
                conv += 1
                if (b.int64() != b.int64().T).any():
                    raise _violation("convertible mate of I is not symmetric", b)
        if conv != 9:
            raise _violation(f"expected 9 convertible mates of I4, found {conv}", i4)
        tags["identity_mates"] = len(mates)
        tags["identity_convertible"] = conv

    return EnumerationReport(
        scope=scope,
        total_pairs=total,
        by_diff_rank=by_rank,
        tags=tags,
        seconds=time.perf_counter() - t0,
    )
