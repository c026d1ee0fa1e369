"""
Isomorphism of Gram pairs (B = PAQ), fixability and sum separation of a
rank-1 pair, given as its A in canonical coordinates (RemainingContext), and
isomorphism of mates whose singular values are all distinct.  The last has
the precondition distinct_singular_values, the one float predicate in the
library that decides anything: LAPACK's singular values through numpy,
separated by the relative gap _REL_TOL.

All three questions are one search: a complete backtracking over row maps
in which rows and columns may carry colours that P and Q must preserve.
Fixability colours the touched rows and columns of E; the distinct-spectrum
case needs no colours, as every witness there is a pair of involutions (a
theorem, not a restriction of the search).  The search has an explicit node
cap; exceeding it yields the string "undecided (cap)", never a wrong
verdict.

Candidates are first filtered by Gram-row fingerprints, which mates share
(AA^T = BB^T).  So at its first dead end the search refines row and column
colours of both matrices together (Weisfeiler-Leman colour refinement of
the bipartite graph, as in McKay and Piperno, "Practical graph
isomorphism, II", 2014) and restarts once on the refined colours.  The
refined colours are invariants, so the search stays complete; they are
64-bit hashes, and a collision only merges two classes.  On the 49x49
Kronecker pairs of the 7x7 rank-1 example this takes 98 and 49 nodes
instead of about 195k and 390k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import GramPair
from .matrix_core import BinaryMatrix, Permutation, _gram, apply_perms, rank_exact
from .rank_forms import Rank1Form, classify_rank1

DEFAULT_NODE_CAP = 10**7
_REL_TOL = 1e-8  # least relative gap between distinct singular values

UNDECIDED = "undecided (cap)"
NON_ISOMORPHIC = "non-isomorphic"


class CapExceeded(Exception):
    pass


class _DeadEnd(Exception):
    """The unrefined search failed for the first time."""


@dataclass(frozen=True)
class RemainingContext:
    """A rank-1 pair in the canonical coordinates of its difference.

    A is the pair's A relabelled by form.row_perm and form.col_perm, so that
    it reads [[J,0,X1],[0,J,X2],[X3,X4,Y]] with J the k1 x k2 all-ones
    block; B is the same matrix with its two J blocks swapped.  The first
    2*k1 rows and 2*k2 columns are the touched ones.
    """

    A: BinaryMatrix
    form: Rank1Form

    def __post_init__(self):
        if self.A.shape != self.form.shape:
            raise ValueError("dimension mismatch")


@dataclass(frozen=True)
class IsoWitness:
    """B = P.matrix() @ A @ Q.matrix(), exactly."""

    P: Permutation
    Q: Permutation


def remaining_context(pair: GramPair) -> RemainingContext:
    # decided from the difference itself, not from the pair's diff_rank field
    d = pair.diff()
    form = classify_rank1(d)
    if form is None:
        rank = rank_exact(d)
        if rank != 1:
            raise ValueError(f"the difference has rank {rank}, not 1")
        raise RuntimeError("rank-1 difference of a Gram pair has no canonical form")
    return RemainingContext(apply_perms(pair.A, form.row_perm, form.col_perm), form)


# splitmix64's finaliser constants: fixed odd multipliers, so nothing is
# drawn or built at import
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(x: np.ndarray) -> np.ndarray:
    """A fixed scrambling of uint64 colours (splitmix64), wrapping mod 2^64."""
    x = x + _GOLDEN
    x = (x ^ (x >> 30)) * _MUL1
    x = (x ^ (x >> 27)) * _MUL2
    return x ^ (x >> 31)


def _classes(x: np.ndarray) -> int:
    """The number of distinct values in x (np.unique would import numpy.ma,
    about 10 ms, on its first call in a process)."""
    s = np.sort(x, axis=None)
    return int(s.size > 0) + int(np.count_nonzero(s[1:] != s[:-1]))


def _refine(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Joint colour refinement of the rows and columns of a and b.

    rows is (2, m) and cols (2, n): the starting colours of a's and b's rows
    and columns, one numbering for both sides.  Each round a row's colour
    becomes a mix of its old colour and the sum of mixed colours of the
    columns where it has a 1; then columns do the same over rows.  Rounds
    stop when the number of classes stops growing.  Returns the refined
    (rows, cols), or None when a's and b's colour multisets differ.
    """
    ab = np.stack([a, b]).astype(np.uint64)
    classes = _classes(rows) + _classes(cols)
    while True:
        rows = _mix(rows * _MUL2 + (ab @ _mix(cols)[:, :, None])[:, :, 0])
        cols = _mix(cols * _MUL2 + (_mix(rows)[:, None, :] @ ab)[:, 0, :])
        grown = _classes(rows) + _classes(cols)
        if grown <= classes:
            break
        classes = grown
    for side in (rows, cols):
        if not np.array_equal(np.sort(side[0]), np.sort(side[1])):
            return None
    return rows, cols


def _fingerprints(g: np.ndarray, row_colour) -> list[tuple]:
    """(colour, Gram diagonal, sorted Gram row) of each row, from the int64
    Gram matrix g, with one numpy sort of all its rows."""
    return list(zip(row_colour, g.diagonal().tolist(), map(tuple, np.sort(g, axis=1).tolist())))


def _search(a: np.ndarray, b: np.ndarray, node_cap: int, row_colour=None, col_colour=None):
    """A complete search for B = PAQ with P and Q preserving the given colours.

    Rows are placed one at a time, each placement one node against the cap,
    by a loop that keeps one candidate iterator per row, so the depth (one
    level per row) is not bounded by Python's recursion limit.
    A row of a may go to a row of b with the same (colour, Gram diagonal,
    sorted Gram row) that agrees on the Gram matrix with every row already
    placed; the Gram diagonal of a (0,1) matrix is its row sums.  A complete
    row map is closed by matching columns on (colour, content).  Returns an
    IsoWitness, NON_ISOMORPHIC or UNDECIDED.

    At the first dead end (a row with no consistent candidate left, or a
    complete row map that no column map closes) the rows and columns of a
    and b are refined together (_refine) and the placement starts again
    once, with candidates of the same refined colour; nodes of both passes
    count against the cap.  Refined colours are isomorphism invariants, so
    every isomorphism maps each row and column to one of its own refined
    colour: the restriction drops no witness, the search stays complete,
    and colour multisets that differ prove non-isomorphism.  A hash
    collision merges two classes, which only weakens the pruning.
    Refinement waits for a dead end because most calls never reach one:
    of the 6,396 calls in one round of the iso-search benchmark (seed 1),
    5,094 finish within m nodes, and refining every call raised the median
    call from 76 to 146 us (process time).
    """
    m, n = a.shape
    row_colour = row_colour or (0,) * m
    col_colour = col_colour or (0,) * n
    # as int64, so that the fingerprints and Gram rows hold Python ints
    ga, gb = _gram(a).astype(np.int64), _gram(b).astype(np.int64)
    fa, fb = _fingerprints(ga, row_colour), _fingerprints(gb, row_colour)
    ga, gb = ga.tolist(), gb.tolist()
    if sorted(fa) != sorted(fb):
        return NON_ISOMORPHIC
    ids = {f: k for k, f in enumerate(set(fa))}
    rows = [[ids[f] for f in fa], [ids[f] for f in fb]]
    cols = [list(col_colour), list(col_colour)]

    def keyed(rows, cols):
        """Candidate rows of b for each row of a, and b's column pool keys."""
        by_colour: dict[int, list[int]] = {}
        for r, c in enumerate(rows[1]):
            by_colour.setdefault(c, []).append(r)
        return [by_colour[c] for c in rows[0]], [(cols[1][j], b[:, j].tobytes()) for j in range(n)]

    cand, b_cols = keyed(rows, cols)
    rho = [-1] * m
    used = [False] * m
    left = node_cap
    refined = False

    def close():
        """A column map for the complete row map rho, as a witness, or None."""
        t = np.empty_like(a)
        t[rho, :] = a
        pool: dict[tuple, list[int]] = {}
        for j in range(n - 1, -1, -1):
            pool.setdefault(b_cols[j], []).append(j)
        gamma = []
        for j in range(n):
            js = pool.get((cols[0][j], t[:, j].tobytes()))
            if not js:
                return None
            gamma.append(js.pop())
        P = Permutation(tuple(rho))
        Q = Permutation(tuple(gamma)).inverse()
        # (PAQ)[P(i), j] = A[i, Q(j)]
        if not (b[list(P.image), :] == a[:, list(Q.image)]).all():
            raise RuntimeError("isomorphism witness does not map A to B")
        return IsoWitness(P=P, Q=Q)

    def place():
        """Depth-first placement of every row, one candidate iterator per row."""
        nonlocal left
        stack = [iter(cand[0])]  # stack[i]: the candidates row i has not tried
        while stack:
            i = len(stack) - 1
            if rho[i] >= 0:
                used[rho[i]], rho[i] = False, -1
            gi = ga[i]
            for r in stack[i]:
                if used[r]:
                    continue
                gr = gb[r]
                if all(gr[rho[i2]] == gi[i2] for i2 in range(i)):
                    break
            else:
                if not refined:
                    raise _DeadEnd
                stack.pop()
                continue
            left -= 1
            if left < 0:
                raise CapExceeded
            rho[i], used[r] = r, True
            if i + 1 < m:
                stack.append(iter(cand[i + 1]))
                continue
            found = close()
            if found is not None:
                return found
            if not refined:
                raise _DeadEnd
        return None

    try:
        try:
            found = place()
        except _DeadEnd:
            colours = _refine(a, b, np.array(rows, dtype=np.uint64), np.array(cols, dtype=np.uint64))
            if colours is None:
                return NON_ISOMORPHIC
            rows, cols = (c.tolist() for c in colours)
            cand, b_cols = keyed(rows, cols)
            rho, used = [-1] * m, [False] * m
            refined = True
            found = place()
    except CapExceeded:
        return UNDECIDED
    return NON_ISOMORPHIC if found is None else found


def is_fixable(ctx: RemainingContext, node_cap: int = DEFAULT_NODE_CAP):
    """Is there an isomorphism of the two canonical matrices that fixes the border?

    The search maps [[0,J,X1],[J,0,X2],[X3,X4,Y]] onto [[J,0,X1],[0,J,X2],[X3,X4,Y]]
    with the touched rows and columns (the J blocks) kept among themselves.
    Such a map either swaps the two touched row groups, maps the X1/X2 rows
    onto each other and keeps the X3/X4 column groups, or the transpose of
    that; on the untouched part it fixes Y.
    """
    k1, k2 = ctx.form.k1, ctx.form.k2
    m, n = ctx.A.shape
    m0 = ctx.A.int64()
    m0[:2 * k1, :2 * k2] = 0
    m1 = m0.copy()
    m0[:k1, k2:2 * k2] = m0[k1:2 * k1, :k2] = 1
    m1[:k1, :k2] = m1[k1:2 * k1, k2:2 * k2] = 1
    verdict = _search(m0, m1, node_cap,
                      row_colour=[int(i >= 2 * k1) for i in range(m)],
                      col_colour=[int(j >= 2 * k2) for j in range(n)])
    if verdict == UNDECIDED:
        return UNDECIDED
    return isinstance(verdict, IsoWitness)


def are_isomorphic(A: BinaryMatrix, B: BinaryMatrix, node_cap: int = DEFAULT_NODE_CAP):
    """A complete search for B = PAQ: an IsoWitness, NON_ISOMORPHIC or UNDECIDED."""
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    return _search(A.int64(), B.int64(), node_cap)


def distinct_singular_values(a: np.ndarray) -> bool:
    """True iff consecutive sorted singular values of the array a are well
    separated, by LAPACK's SVD through numpy, values only."""
    sigma = np.linalg.svd(a.astype(np.float64), compute_uv=False)
    return bool((sigma[:-1] - sigma[1:] > _REL_TOL * np.maximum(1.0, sigma[:-1])).all())


def iso_distinct_sv(pair: GramPair, node_cap: int = DEFAULT_NODE_CAP):
    """Isomorphism of square mates with all distinct singular values.

    B = PAQ for mates means P commutes with AA^T and Q with A^TA.  With
    distinct singular values every eigenspace of both is one line, which P
    and Q map to itself up to sign, so P^2 = I and Q^2 = I: every witness
    is a pair of involutions, and the search needs no restriction.
    """
    a, b = pair.A.int64(), pair.B.int64()
    if a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if not distinct_singular_values(a):
        raise ValueError("singular values are not all distinct")
    return _search(a, b, node_cap)


def sum_separation(A: BinaryMatrix, ctx: RemainingContext) -> bool:
    """Are the border row/column sums disjoint from the remaining block's?

    True when, for each of the two touched row groups, its set of row sums
    shares nothing with the untouched rows' sums, and likewise for columns.
    A is in the pair's own coordinates (its A or its B: they share every
    row and column sum).  Under this hypothesis isomorphic and fixable
    coincide.
    """
    if A.shape != ctx.A.shape:
        raise ValueError("dimension mismatch")
    a = A.int64()
    for sums, perm, k in ((a.sum(axis=1), ctx.form.row_perm, ctx.form.k1),
                          (a.sum(axis=0), ctx.form.col_perm, ctx.form.k2)):
        canonical = np.empty_like(sums)
        canonical[list(perm.image)] = sums
        rest = set(canonical[2 * k:].tolist())
        if rest & set(canonical[:k].tolist()) or rest & set(canonical[k:2 * k].tolist()):
            return False
    return True
