"""
Brute-force ground truth at desk scale: exhaustive enumeration of Gram
pairs, enumeration of every mate of a given matrix, and a theorem-validation
harness that replays the library's invariants against enumerated corpora.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .gram import GramPair, convertibility, is_gram_pair
from .matrix_core import BinaryMatrix, col_sums, row_sums, serialize_matrix
from .rank_forms import classify_rank1, classify_rank2

DEFAULT_CELL_CAP = 25
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
    violations: tuple[str, ...] = ()


def _decode(code: int, m: int, n: int) -> np.ndarray:
    bits = (code >> np.arange(m * n)) & 1
    return bits.reshape(m, n).astype(np.int8)


def _fingerprint(a64: np.ndarray) -> bytes:
    return (a64 @ a64.T).tobytes() + b"|" + (a64.T @ a64).tobytes()


def enumerate_gram_pairs(
    m: int,
    n: int,
    row_sums_filter=None,
    col_sums_filter=None,
    diff_rank: int | None = None,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> list[GramPair]:
    """All unordered Gram pairs of shape m x n, in lexicographic bit order.

    Matrices are encoded as mn-bit integers and grouped by the exact
    (AA^T, A^T A) byte fingerprint; pairs are emitted within groups only.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if m * n > cell_cap:
        raise OracleCapError(f"{m}x{n} exceeds the {cell_cap}-cell cap")
    rfilt = tuple(row_sums_filter) if row_sums_filter is not None else None
    cfilt = tuple(col_sums_filter) if col_sums_filter is not None else None

    # codes are scanned in increasing order, so every group list is sorted
    groups: dict[bytes, list[int]] = {}
    for code in range(1 << (m * n)):
        a = _decode(code, m, n).astype(np.int64)
        if rfilt is not None and tuple(int(x) for x in a.sum(axis=1)) != rfilt:
            continue
        if cfilt is not None and tuple(int(x) for x in a.sum(axis=0)) != cfilt:
            continue
        groups.setdefault(_fingerprint(a), []).append(code)

    out: list[tuple[int, int, GramPair]] = []
    for codes in groups.values():
        for i, j in itertools.combinations(range(len(codes)), 2):
            A = BinaryMatrix(_decode(codes[i], m, n))
            B = BinaryMatrix(_decode(codes[j], m, n))
            pair = is_gram_pair(A, B)
            if pair is None:  # same fingerprint and distinct
                raise RuntimeError("matrices with equal Gram matrices are not a Gram pair")
            if diff_rank is not None and pair.diff_rank != diff_rank:
                continue
            out.append((codes[i], codes[j], pair))
    out.sort(key=lambda t: (t[0], t[1]))
    return [p for _, _, p in out]


def enumerate_mates_of(A: BinaryMatrix, node_cap: int = DEFAULT_MATE_NODE_CAP) -> list[BinaryMatrix]:
    """Every B != A with (A, B) a Gram pair, by row-wise backtracking.

    Candidate rows carry A's row sums; partial column sums are bounded
    against the remaining rows before descending.
    """
    a = A.int64()
    g = a @ a.T
    m, n = a.shape
    rs = [int(x) for x in a.sum(axis=1)]
    cs = np.array([int(x) for x in a.sum(axis=0)], dtype=np.int64)
    by_sum: dict[int, list[np.ndarray]] = {}
    for s in set(rs):
        by_sum[s] = [np.array(bits, dtype=np.int64) for bits in itertools.product((0, 1), repeat=n)
                     if sum(bits) == s]
    found: list[BinaryMatrix] = []
    cur = np.zeros(n, dtype=np.int64)
    rows: list[np.ndarray] = []
    budget = [node_cap]

    def rec(i: int):
        if i == m:
            b = np.vstack(rows)
            if (b == a).all():
                return
            B = BinaryMatrix(b.astype(np.int8))
            if is_gram_pair(A, B) is not None:
                found.append(B)
            return
        remaining = m - i - 1
        for cand in by_sum[rs[i]]:
            budget[0] -= 1
            if budget[0] < 0:
                raise OracleCapError("mate search exceeded the node cap")
            nxt = cur + cand
            if (nxt > cs).any() or (nxt + remaining < cs).any():
                continue
            # BB^T must equal AA^T entry by entry
            if any(int(cand @ rows[i2]) != g[i, i2] for i2 in range(i)):
                continue
            cur[:] = nxt
            rows.append(cand)
            rec(i + 1)
            rows.pop()
            cur[:] = nxt - cand
        return

    rec(0)
    found.sort(key=lambda M: tuple(M.data.flatten().tolist()))
    return found


def _violation(tag: str, *mats: BinaryMatrix) -> TheoremViolation:
    blobs = "\n".join(serialize_matrix(M) for M in mats)
    return TheoremViolation(f"{tag}\n{blobs}")


def validate_theorems(scope: str = "all") -> EnumerationReport:
    """Replay the library's structural invariants over enumerated corpora.

    Scopes: "rank-classification" (every enumerated pair with diff rank one
    or two classifies), "convertibility" (the seven-condition report runs
    without internal disagreement), "identity-mates" (mates of I4 are the 23
    non-identity permutations, 9 of them convertible), or "all".
    """
    t0 = time.time()
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
        seconds=time.time() - t0,
    )
