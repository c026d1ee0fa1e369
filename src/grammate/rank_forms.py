"""
Canonical block forms of rank-1 and rank-2 difference matrices.

A realizable difference matrix of rank 1 is permutation equivalent to
[[J,-J,0],[-J,J,0],[0,0,0]]; rank-2 matrices fall into five block forms
M1..M5.  This module classifies a given difference matrix into its form,
decides realizability, completes a form to a concrete witness A (so that
(A, A+E) is a Gram pair), and reads the Gram singular values off two
integer invariants of the form's group matrix and group sizes (_gram_data).
Whether a given A is a witness is gram.is_realizable_witness's question.

One table, _LAYOUT, describes the six canonical forms, and Rank1Form and
Rank2Form name theirs alike (mtype, as_dict, transposed), so every step
after classification reads either form the same way.  Classification is
a column-signature lookup.  The live rows of E split into sign-normalised
patterns (one for rank 1, two or three for rank 2); each live column's
entries across the patterns form its signature, and the set of signatures
names the form and the order and signs of its basis patterns.

Completion has no layout of its own.  A + E must be a (0,1) matrix, which
forces A = 1 where E = -1 and A = 0 where E = 1, so every witness is
[E = -1] with its zero cells built.  The zero rows and columns of E stay
zero in A.  The other zero cells are, for each basis pattern, its two row
groups by its zero columns, two adjacent column groups; each such block
is filled at once: with a half strip for M2-M4.  For M5 the three blocks
X, Y and Z come from one exact search over their signed row and column
sums, each block a Gale-Ryser U(R,S) member once one of its row bands and
one of its column groups are complemented.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gale_ryser
from .gram import GramSingularReport, is_realizable_witness
from .matrix_core import BinaryMatrix, Permutation, SignedMatrix, _inverse_image, rank_exact


class FormMatchError(RuntimeError):
    """Rank-2 matrix with zero sums matched none of the five forms."""


class NotRealizableError(ValueError):
    """Completion was requested for a non-realizable form."""


# (row groups, column groups, basis patterns) of each canonical E, "R1"
# being the rank-1 form: row group 2t carries basis pattern t and row group
# 2t+1 its negation, entry g of a pattern filling column group g.  A name
# that repeats names groups of equal size.
_KL = ("k", "k", "l", "l")
_LAYOUT = {
    "R1": (("k1", "k1"), ("k2", "k2"), ((1, -1),)),
    "M1": (_KL, ("a", "b", "b", "a"), ((1, 1, -1, -1), (1, -1, 1, -1))),
    "M2": (_KL, ("e", "f", "g", "h"), ((1, -1, 0, 0), (0, 0, 1, -1))),
    "M3": (_KL, tuple("abcdef"), ((1, 1, -1, -1, 1, -1), (1, -1, 1, -1, 0, 0))),
    "M4": (_KL, tuple("abcdefgh"), ((1, 1, -1, -1, 1, -1, 0, 0), (1, -1, 1, -1, 0, 0, 1, -1))),
    "M5": (
        tuple("klpqrs"),
        tuple("abcdef"),
        ((1, -1, 1, -1, 0, 0), (1, -1, 0, 0, 1, -1), (0, 0, 1, -1, -1, 1)),
    ),
}

# the index names of each rank-2 form: its row names, then its column names
M_INDEX_NAMES = {
    m: tuple(dict.fromkeys(rows + cols)) for m, (rows, cols, _) in _LAYOUT.items() if m != "R1"
}
# the entries of each row group across the column groups, in _LAYOUT order
_GROUP_ROWS = {
    m: np.array([row for pat in pats for row in (pat, [-x for x in pat])], dtype=np.int8)
    for m, (_, _, pats) in _LAYOUT.items()
}
# signature of each column group across the basis patterns, in _LAYOUT order
_COL_SIGS = {m: tuple(zip(*pats)) for m, (_, _, pats) in _LAYOUT.items()}


def _zero_sum_relations(rows, cols, pats) -> tuple[tuple[tuple[str, int], ...], ...]:
    """The zero row and column sums of a canonical E as (name, coefficient)
    relations on its indices, less those that always hold and repeats up to
    sign: row group 2t sums pattern t over the column groups, and column
    group g sums entry g over each pattern's row group less its negation's."""
    sums = [list(zip(cols, pat)) for pat in pats]
    sums += [[(rows[2 * t + h], pat[g] * (1 - 2 * h)) for t, pat in enumerate(pats) for h in (0, 1)]
             for g in range(len(cols))]
    out = {}
    for terms in sums:
        coeff: dict[str, int] = {}
        for name, x in terms:
            coeff[name] = coeff.get(name, 0) + x
        rel = tuple((name, x) for name, x in coeff.items() if x)
        if rel and tuple((name, -x) for name, x in rel) not in out:
            out[rel] = None
    return tuple(out)


_ZERO_SUMS = {m: _zero_sum_relations(*_LAYOUT[m]) for m in M_INDEX_NAMES}


def _core(mtype: str, idx: dict[str, int]) -> np.ndarray:
    """The canonical E of a form without its zero rows and columns, int8."""
    rows, cols, _ = _LAYOUT[mtype]
    core = np.repeat(_GROUP_ROWS[mtype], [idx[n] for n in rows], axis=0)
    return np.repeat(core, [idx[n] for n in cols], axis=1)


def _pad(a: np.ndarray, shape) -> np.ndarray:
    """a in the leading corner of a zero array of the given shape."""
    out = np.zeros(shape, dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def _canonical(mtype: str, idx: dict[str, int], pad_rows: int, pad_cols: int) -> SignedMatrix:
    if pad_rows < 0 or pad_cols < 0:
        raise ValueError("pad_rows and pad_cols must be nonnegative")
    core = _core(mtype, idx)
    return SignedMatrix(_pad(core, (core.shape[0] + pad_rows, core.shape[1] + pad_cols)))


# ---------------------------------------------------------------------------
# classification


def _pattern_split(b: np.ndarray):
    """Split the live rows of b into sign-normalised patterns.

    A live row is s * p, with s the sign of its first nonzero entry and p
    its pattern; patterns are numbered in order of first appearance.
    Returns (plus, minus, groups, zero_rows, zero_cols): plus[t] and
    minus[t] are the rows equal to pattern t and to its negation, and
    groups maps the signature of each live column (its entries across the
    patterns) to the columns that carry it.  Every index list ascends.
    """
    nz = b != 0
    live_rows, live_cols = nz.any(axis=1), nz.any(axis=0)
    rows = np.flatnonzero(live_rows)
    signs = b[rows, nz[rows].argmax(axis=1)]
    number: dict[bytes, int] = {}
    pats, plus, minus = [], [], []
    for i, s, row in zip(rows.tolist(), signs.tolist(), b[rows] * signs[:, None]):
        t = number.setdefault(row.tobytes(), len(number))
        if t == len(pats):
            pats.append(row[live_cols].tolist())
            plus.append([])
            minus.append([])
        (plus if s > 0 else minus)[t].append(i)
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, sig in zip(np.flatnonzero(live_cols).tolist(), zip(*pats)):
        groups.setdefault(sig, []).append(j)
    return plus, minus, groups, np.flatnonzero(~live_rows).tolist(), np.flatnonzero(~live_cols).tolist()


@functools.cache
def _match(sigs: frozenset):
    """(mtype, pattern order, pattern signs) of the first form that fits the
    column signatures sigs, or None; classify_rank2 gives the order tried.

    A fit maps sigs into the form's column signatures and meets every
    support class among them (M3, say, needs a column on both patterns and
    one on the first alone).  The zero sums supply the rest of the block
    structure.  Signatures that fit lie in a plane, as those of any rank-2
    split do, so a fit implies rank 2.  A key holds at most 26 signatures,
    at most eight when E has rank 2, so the cache stays small.
    """
    width = len(next(iter(sigs)))
    for mtype in (m for m, (_, _, pats) in _LAYOUT.items() if len(pats) == width):
        allowed = set(_COL_SIGS[mtype])
        classes = {tuple(x != 0 for x in sig) for sig in allowed}
        for order in itertools.permutations(range(width)):
            for signs in itertools.product((1, -1), repeat=width):
                moved = {tuple(s * sig[t] for t, s in zip(order, signs)) for sig in sigs}
                if moved <= allowed and {tuple(x != 0 for x in sig) for sig in moved} == classes:
                    return mtype, order, signs
    return None


def _zero_sum(E: SignedMatrix):
    """E as int64, or None when a row or column sum is nonzero."""
    a = E.int64()
    if not a.any():
        raise ValueError("E must be nonzero")
    if a.sum(axis=1).any() or a.sum(axis=0).any():
        return None
    return a


def _fit(b: np.ndarray, widths, transposed: bool = False):
    """The Rank1Form or Rank2Form that fits the zero-sum matrix b with a
    pattern count in widths, else None; transposed says that b is E^T.

    The permutations send b's rows and columns to their places in the
    padded canonical E, whose indices are the group sizes of the split.
    """
    plus, minus, groups, zero_rows, zero_cols = _pattern_split(b)
    hit = _match(frozenset(groups)) if len(plus) in widths else None
    if hit is None:
        return None
    mtype, order, signs = hit
    bands = [(plus[t], minus[t]) if s > 0 else (minus[t], plus[t]) for t, s in zip(order, signs)]
    row_groups = [g for band in bands for g in band]
    moved = {tuple(s * sig[t] for t, s in zip(order, signs)): cols for sig, cols in groups.items()}
    col_groups = [moved.get(sig, []) for sig in _COL_SIGS[mtype]]
    rows, cols, _ = _LAYOUT[mtype]
    # a name that repeats is set twice; the zero sums make both counts equal
    idx = dict(zip(rows + cols, map(len, row_groups + col_groups)))
    row_order = [i for g in row_groups for i in g] + zero_rows
    col_order = [j for g in col_groups for j in g] + zero_cols
    canon = _pad(_core(mtype, idx), b.shape)
    if not np.array_equal(b.take(row_order, 0).take(col_order, 1), canon):
        raise RuntimeError(f"{mtype} match does not map E onto its canonical form")
    row_perm = Permutation(tuple(_inverse_image(row_order)))
    col_perm = Permutation(tuple(_inverse_image(col_order)))
    if mtype == "R1":
        return Rank1Form(idx["k1"], idx["k2"], row_perm, col_perm)
    indices = tuple((n, idx[n]) for n in M_INDEX_NAMES[mtype])
    return Rank2Form(mtype, indices, row_perm, col_perm, transposed)


# ---------------------------------------------------------------------------
# canonical coordinates: the padded E, the way back, the witness


def _canonical_of(form):
    """(layout name, indices, padded canonical E) of a rank-1 or rank-2 form."""
    mtype, idx = form.mtype, form.as_dict()
    return mtype, idx, _pad(_core(mtype, idx), (form.row_perm.size, form.col_perm.size))


def _to_original(form, *mats):
    """Matrices in the form's canonical coordinates, mapped back to E's.

    With P, Q the form's row and column permutations, original entry (i, j)
    is canonical entry (P(i), Q(j)) (of the transpose when form.transposed),
    so mapping back gathers by the images and inverts neither permutation.
    """
    out = [M.take(form.row_perm.image, 0).take(form.col_perm.image, 1) for M in mats]
    return [M.T for M in out] if form.transposed else out


def _report(form, values, right, left, source: str) -> GramSingularReport:
    """Singular values with canonical right and left vectors (as columns),
    the vectors padded with zeros and mapped back to E's coordinates as
    _to_original maps matrices."""
    right, left = (
        _pad(vecs, (perm.size, vecs.shape[1])).take(perm.image, 0)
        for vecs, perm in ((right, form.col_perm), (left, form.row_perm))
    )
    if form.transposed:
        right, left = left, right
    return GramSingularReport(
        values=tuple(values), right_vectors=right, left_vectors=left, source=source
    )


def _gram_data(form, source: str) -> GramSingularReport:
    """Singular values and vectors of E/2 for a rank-1 or rank-2 form, read
    off its group matrix.

    The canonical E repeats each entry of the group matrix G (row groups by
    column groups) over a block of the two groups' sizes.  With D_r and D_c
    the diagonal matrices of those sizes, E^T E = C G^T D_r G C^T for the
    column-group indicator C, whose nonzero spectrum is that of the integer
    matrix M = G^T D_r G D_c, as C^T C = D_c.  At rank r <= 2 the nonzero
    eigenvalues of M are the roots of x^2 - t x + e2, with t = tr M and
    e2 = (t^2 - tr M^2) / 2, which is 0 at rank 1.  Both are computed in
    integers, so the rank is checked exactly, and each value is
    sigma = sqrt(lambda) / 2.

    The right vectors come from the top r eigenvectors z of the symmetric
    D_c^1/2 G^T D_r G D_c^1/2: v spreads z_g / sqrt(|g|) over each column
    group g, and its first entry above 1e-8 is made positive.  The left
    vectors are u = (-E/2) v / sigma.  At a repeated value any orthonormal
    basis of the eigenspace is valid, and eigh returns one.
    """
    mtype, idx = form.mtype, form.as_dict()
    rows, cols, _ = _LAYOUT[mtype]
    rank = 1 if mtype == "R1" else 2
    r = np.array([idx[n] for n in rows], dtype=np.int64)
    c = np.array([idx[n] for n in cols], dtype=np.int64)
    G = _GROUP_ROWS[mtype].astype(np.int64)
    K = G.T @ (r[:, None] * G)
    M = (K * c).astype(object)  # Python integers: tr M^2 may pass 2^63
    t = M.trace()
    e2 = (t * t - (M * M.T).sum()) // 2
    if (e2 > 0) != (rank == 2):
        raise RuntimeError(f"{mtype} {idx} group matrix does not have rank {rank}")
    root = math.sqrt(t * t - 4 * e2)
    values = [math.sqrt((t + root) / 2) / 2, math.sqrt((t - root) / 2) / 2][:rank]
    w = np.sqrt(c)
    z = np.linalg.eigh(w[:, None] * K * w)[1][:, : -rank - 1 : -1]
    right = np.repeat(z, c, axis=0) / np.repeat(w, c)[:, None]
    first = (np.abs(right) > 1e-8).argmax(axis=0)
    signs = np.sign(right[first, np.arange(rank)])
    right *= signs
    # C^T v = D_c^1/2 z, so E v repeats G D_c^1/2 z over the row groups
    left = np.repeat(G @ (w[:, None] * z * signs) / (-2 * np.array(values)), r, axis=0)
    return _report(form, values, right, left, source)


def _fill(E: np.ndarray, mtype: str, idx: dict[str, int], block) -> np.ndarray:
    """The witness [E = -1] with block(t, m1, m2, n1, n2) on the zero cells
    of each basis pattern t that has any.

    E is the form's canonical matrix, padded or not.  Pattern t's zero
    cells lie in its row groups, of sizes m1 and m2, and its two zero
    column groups, which are adjacent in every layout, of sizes n1 and n2.
    """
    A = (E == -1).astype(np.int8)
    rows, cols, pats = _LAYOUT[mtype]
    r = list(itertools.accumulate((idx[n] for n in rows), initial=0))
    c = list(itertools.accumulate((idx[n] for n in cols), initial=0))
    for t, pat in enumerate(pats):
        if 0 in pat:
            g = pat.index(0)
            sizes = idx[rows[2 * t]], idx[rows[2 * t + 1]], idx[cols[g]], idx[cols[g + 1]]
            A[r[2 * t] : r[2 * t + 2], c[g] : c[g + 2]] = block(t, *sizes)
    return A


def _complete(form) -> BinaryMatrix:
    """The verified witness of a realizable rank-1 or rank-2 form.

    The rank-1 pattern has no zero cells, so _fill places no block there.
    """
    mtype, d, E = _canonical_of(form)
    A = _complete_m5(E, d) if mtype == "M5" else _fill(E, mtype, d, _half_strip)
    if A is None:
        raise RuntimeError(f"no block profile completes the realizable form M5 {d}")
    A, E = _to_original(form, A, E)
    A, E = BinaryMatrix(A), SignedMatrix(E)
    # never emit an unverified witness, also under python -O
    if not is_realizable_witness(E, A):
        raise RuntimeError(f"completion of {mtype} {d} failed Gram verification")
    return A


# ---------------------------------------------------------------------------
# rank 1


def _check_rank1(k1: int, k2: int) -> None:
    if k1 <= 0 or k2 <= 0:
        raise ValueError("k1 and k2 must be positive")


@dataclass(frozen=True)
class Rank1Form:
    k1: int
    k2: int
    row_perm: Permutation
    col_perm: Permutation
    # what Rank2Form holds per form, fixed for rank 1
    mtype = "R1"
    transposed = False

    def __post_init__(self):
        _check_rank1(self.k1, self.k2)

    def as_dict(self) -> dict[str, int]:
        return {"k1": self.k1, "k2": self.k2}

    @property
    def shape(self):
        return (self.row_perm.size, self.col_perm.size)


def canonical_rank1_E(k1: int, k2: int, pad_rows: int = 0, pad_cols: int = 0) -> SignedMatrix:
    _check_rank1(k1, k2)
    return _canonical("R1", {"k1": k1, "k2": k2}, pad_rows, pad_cols)


def classify_rank1(E: SignedMatrix):
    """Rank1Form for a rank-1 zero-sum difference matrix, else None."""
    a = _zero_sum(E)
    # a nonzero {-1,0,1} matrix has one row pattern exactly when its rank is 1
    return None if a is None else _fit(a, (1,))


def rank1_complete(form: Rank1Form) -> BinaryMatrix:
    """Witness A with zero borders, in E's original coordinates."""
    return _complete(form)


def rank1_gram_data(form: Rank1Form) -> GramSingularReport:
    """Closed-form Gram singular value sqrt(k1*k2) with its vector pair."""
    return _gram_data(form, "closed_form_rank1")


# ---------------------------------------------------------------------------
# rank 2: forms and classification


@dataclass(frozen=True)
class Rank2Form:
    mtype: str
    indices: tuple[tuple[str, int], ...]
    row_perm: Permutation
    col_perm: Permutation
    transposed: bool

    def __post_init__(self):
        if self.mtype not in M_INDEX_NAMES:
            raise ValueError(f"unknown form tag {self.mtype}")
        if tuple(n for n, _ in self.indices) != M_INDEX_NAMES[self.mtype]:
            raise ValueError("index names do not match the form tag")
        idx = dict(self.indices)
        if min(idx.values()) < 0:
            raise ValueError(f"{self.mtype} indices must be nonnegative")
        if any(sum(x * idx[name] for name, x in rel) for rel in _ZERO_SUMS[self.mtype]):
            raise ValueError(f"{self.mtype} indices break the zero row and column sums of E")

    def as_dict(self) -> dict[str, int]:
        return dict(self.indices)


def canonical_rank2_E(
    mtype: str, idx: dict[str, int], pad_rows: int = 0, pad_cols: int = 0
) -> SignedMatrix:
    """The canonical E of a rank-2 form, with pad_rows zero rows and pad_cols
    zero columns; idx names each index of the form once, and a zero index is
    an empty group."""
    if mtype not in M_INDEX_NAMES:
        raise ValueError(f"unknown form tag {mtype}")
    if idx.keys() != set(M_INDEX_NAMES[mtype]):
        raise ValueError("index names do not match the form tag")
    if min(idx.values()) < 0:
        raise ValueError(f"{mtype} indices must be nonnegative")
    return _canonical(mtype, idx, pad_rows, pad_cols)


def classify_rank2(E: SignedMatrix):
    """Rank2Form for a rank-2 zero-sum matrix, None if shape/rank/sums fail.

    Classification is a lookup: the live rows split into two or three
    sign-normalised patterns, numbered by first appearance, and the set of
    column signatures across them names the form.  A form has symmetric
    labellings, as its basis patterns may be reordered and negated.  The
    one returned is the first fit when forms are tried as M1, M2, M3, M4
    (two patterns) or M5 (three), within a form each pattern order in
    itertools.permutations order, then each sign choice in
    itertools.product((1, -1)) order.  Rows and columns ascend inside each
    group, and the untransposed orientation is tried first.

    Raises FormMatchError for a rank-2 zero-sum matrix that matches none of
    the five forms in either orientation (such a matrix is not realizable).
    """
    a = _zero_sum(E)
    if a is None:
        return None
    for transposed in (False, True):
        form = _fit(a.T if transposed else a, (2, 3), transposed)
        if form is not None:
            return form
    # a match maps E onto a canonical form, which has rank 2, so the rank is
    # needed only to tell "not rank 2" from "no form" when nothing matched
    if rank_exact(E) != 2:
        return None
    raise FormMatchError("rank-2 zero-sum matrix matches no canonical form; not realizable")


# ---------------------------------------------------------------------------
# rank 2: realizability


def rank2_realizable(form: Rank2Form) -> bool:
    d = form.as_dict()
    if form.mtype in ("M1", "M2"):
        return True
    if form.mtype == "M3":
        return (d["e"] - d["f"]) % 2 == 0
    if form.mtype == "M4":
        return (d["e"] - d["f"]) % 2 == 0 and (d["g"] - d["h"]) % 2 == 0
    rows = (d["k"] + d["l"], d["p"] + d["q"], d["r"] + d["s"])
    cols = (d["a"] + d["b"], d["c"] + d["d"], d["e"] + d["f"])
    # The zero sums give k-l = q-p = s-r and a-b = d-c = f-e, and x+y has
    # the parity of x-y, so the three row sums share one parity and so do
    # the three column sums.  The rule is: all six even, or the ratios
    # (e+f)/(k+l), (c+d)/(p+q) and (a+b)/(r+s) equal.
    if all(t % 2 == 0 for t in rows + cols):
        return True
    return cols[2] * rows[1] == cols[1] * rows[0] and cols[1] * rows[2] == cols[0] * rows[1]


# ---------------------------------------------------------------------------
# rank 2: completion


def _half_strip(t: int, m1: int, m2: int, n1: int, n2: int) -> np.ndarray:
    """M2-M4 block for pattern t: (m1+m2) x (n1+n2), every row with signed
    sum (n1-n2)/2."""
    d = (n1 - n2) // 2
    out = np.zeros((m1 + m2, n1 + n2), dtype=np.int8)
    if d > 0:
        out[:, :d] = 1
    elif d < 0:
        out[:, n1 : n1 - d] = 1
    return out


def _chain_pairs(members1, members2, total: int) -> list[tuple[int, int]]:
    """The value pairs of two chains, each value nearest total / 2 first,
    ties to the smaller.

    A member is (present, (lo, hi)), and a chain's values are the
    intersection of its present members' ranges.  When both chains are
    present their values sum to total; a chain with no member present takes
    the placeholder 0, which no block reads.
    """
    def values(members):
        ranges = [rng for present, rng in members if present]
        if not ranges:
            return None
        lo, hi = max(r[0] for r in ranges), min(r[1] for r in ranges)
        return sorted(range(lo, hi + 1), key=lambda x: (abs(2 * x - total), x))

    firsts, seconds = values(members1), values(members2)
    if firsts is None or seconds is None:
        return list(itertools.product(firsts or [0], seconds or [0]))
    return [(v, total - v) for v in firsts if total - v in seconds]


def _complete_m5(E: np.ndarray, d: dict[str, int]):
    """Witness for the padded canonical M5 matrix E, or None when it has none.

    The zero cells of E off its zero rows and columns are three blocks: X
    on rows k, l by columns e, f; Y on rows p, q by columns c, d; Z on rows
    r, s by columns a, b.  A block row's signed sum is its sum over the
    block's first column group less its second, a block column's its sum
    over the first band less the second.  With B = A + E, AA^T = BB^T at a
    row of one basis pattern and a row of another says that the two rows'
    signed sums add to a constant of the indices.  Every basis pattern of
    an M5 form has a row, so the signed row sums are constant on each band,
    and A^TA = B^TB makes the signed column sums constant on each column
    group the same way.  The identities tie the constants into two value
    chains, x1 = y2 = -z2 = v1 and x2 = y1 = -z1 = v2 (x1 and x2 those of
    X's bands k and l, and so on), and two column chains: w1 is the signed
    column sum of Z's a and Y's d columns and minus that of X's f columns,
    w2 the same for Z's b, Y's c and X's e columns.  A row of one value
    chain and a row of the other, in different patterns, give v1 + v2 =
    e - f, and such a pair exists whenever both chains have rows; likewise
    w1 + w2 = l - k whenever both column chains have columns.

    A block with a given profile is a U(R,S) member once one band and one
    column group are complemented (gale_ryser.signed_profile_block), so
    each profile is decided exactly, and the first whose three blocks exist
    gives the witness; rank2_complete verifies it.  Values are tried
    nearest the midpoint first, v near (e - f)/2 and w near (l - k)/2, ties
    to the smaller.  When every pair sum is even, the midpoint profile is
    the even lemma's, whose witness is the convertible one, so an even form
    keeps a convertible witness.
    """
    k, l, p, q, r, s, a, b, c, dd, e, f = (d[n] for n in "klpqrsabcdef")
    rows = _chain_pairs(
        [(k > 0, (-f, e)), (q > 0, (-dd, c)), (s > 0, (-a, b))],
        [(l > 0, (-f, e)), (p > 0, (-dd, c)), (r > 0, (-a, b))],
        e - f,
    )
    cols = _chain_pairs(
        [(f > 0, (-k, l)), (dd > 0, (-q, p)), (a > 0, (-s, r))],
        [(e > 0, (-k, l)), (c > 0, (-q, p)), (b > 0, (-s, r))],
        l - k,
    )
    block = gale_ryser.signed_profile_block
    for (v1, v2), (w1, w2) in itertools.product(rows, cols):
        X = block(k, l, e, f, v1, v2, -w2, -w1)
        Y = None if X is None else block(p, q, c, dd, v2, v1, w2, w1)
        Z = None if Y is None else block(r, s, a, b, -v2, -v1, w1, w2)
        if Z is not None:
            return _fill(E, "M5", d, lambda t, *_: (X, Y, Z)[t])
    return None


def rank2_complete(form: Rank2Form) -> BinaryMatrix:
    """A witness A (original coordinates) such that (A, A+E) is a Gram pair."""
    if not rank2_realizable(form):
        raise NotRealizableError(f"form {form.mtype} {form.as_dict()} is not realizable")
    return _complete(form)


def reconstruct_E(form: Rank2Form) -> SignedMatrix:
    """The original difference matrix described by the form."""
    (E,) = _to_original(form, _canonical_of(form)[2])
    return SignedMatrix(E)


# ---------------------------------------------------------------------------
# rank 2: closed-form Gram singular data


def rank2_gram_data(form: Rank2Form) -> GramSingularReport:
    """Closed-form singular values and vectors of E/2, from the form's indices.

    They are the Gram singular data of (A, A+E) for every witness A whose
    pair is convertible (gram.convertibility); the form alone does not decide
    whether a given witness is.  The rank2_complete witness is convertible
    for M1-M4 but not always for M5: of the 2,145 M5 forms with indices at
    most 3, 296 complete to a pair that is not convertible.  (Counted over
    the canonical E of every zero-sum M5 index tuple in 0..3 that
    classifies as a realizable M5 form, with gram.convertibility on
    (A, A+E).)  The vectors satisfy (-E/2) v = sigma u.
    """
    return _gram_data(form, "closed_form_rank2")
