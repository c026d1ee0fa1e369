"""
Canonical block forms of rank-1 and rank-2 difference matrices.

A realizable difference matrix of rank 1 is permutation equivalent to
[[J,-J,0],[-J,J,0],[0,0,0]]; rank-2 matrices fall into five block forms
M1..M5.  This module classifies a given difference matrix into its form,
decides realizability, completes a form to a concrete witness A (so that
(A, A+E) is a Gram pair), and produces closed-form Gram singular data.
Whether a given A is a witness is gram.is_realizable_witness's question.

Classification is a column-signature lookup.  The live rows of E split
into sign-normalised patterns (one for rank 1, two or three for rank 2);
each live column's entries across the patterns form its signature, and the
set of signatures names the form and the order and signs of its basis
patterns.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gale_ryser
from .gale_ryser import _J, _Z
from .gram import GramSingularReport, is_realizable_witness
from .matrix_core import (
    BinaryMatrix,
    Permutation,
    SignedMatrix,
    apply_perms,
    rank_exact,
)


class FormMatchError(RuntimeError):
    """Rank-2 matrix with zero sums matched none of the five forms."""


class NotRealizableError(ValueError):
    """Completion was requested for a non-realizable form."""


def _perm_from_order(order) -> Permutation:
    """Permutation sending original index order[pos] to position pos."""
    image = [0] * len(order)
    for pos, orig in enumerate(order):
        image[orig] = pos
    return Permutation(tuple(image))


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


# ---------------------------------------------------------------------------
# rank 1


@dataclass(frozen=True)
class Rank1Form:
    k1: int
    k2: int
    row_perm: Permutation
    col_perm: Permutation

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("k1 and k2 must be positive")

    @property
    def shape(self):
        return (self.row_perm.size, self.col_perm.size)


def canonical_rank1_E(k1: int, k2: int, pad_rows: int = 0, pad_cols: int = 0) -> SignedMatrix:
    j = _J(k1, k2)
    core = np.block([[j, -j], [-j, j]])
    out = np.zeros((2 * k1 + pad_rows, 2 * k2 + pad_cols), dtype=np.int8)
    out[: 2 * k1, : 2 * k2] = core
    return SignedMatrix(out)


def classify_rank1(E: SignedMatrix):
    """Rank1Form for a rank-1 zero-sum difference matrix, else None."""
    a = E.int64()
    if not a.any():
        raise ValueError("E must be nonzero")
    if a.sum(axis=1).any() or a.sum(axis=0).any():
        return None
    plus, minus, groups, zero_rows, zero_cols = _pattern_split(a)
    cplus, cminus = groups.get((1,), []), groups.get((-1,), [])
    # a nonzero {-1,0,1} matrix has one row pattern exactly when its rank is 1
    if len(plus) != 1 or len(plus[0]) != len(minus[0]) or len(cplus) != len(cminus):
        return None
    form = Rank1Form(
        k1=len(plus[0]),
        k2=len(cplus),
        row_perm=_perm_from_order(plus[0] + minus[0] + zero_rows),
        col_perm=_perm_from_order(cplus + cminus + zero_cols),
    )
    canon = canonical_rank1_E(form.k1, form.k2, len(zero_rows), len(zero_cols))
    if apply_perms(E, form.row_perm, form.col_perm) != canon:
        return None
    return form


def rank1_complete(form: Rank1Form) -> BinaryMatrix:
    """Witness A with zero borders, in E's original coordinates."""
    k1, k2 = form.k1, form.k2
    j = _J(k1, k2)
    canon = np.zeros(form.shape, dtype=np.int8)
    canon[:k1, k2 : 2 * k2] = j
    canon[k1 : 2 * k1, :k2] = j
    return apply_perms(BinaryMatrix(canon), form.row_perm.inverse(), form.col_perm.inverse())


def rank1_gram_data(form: Rank1Form) -> GramSingularReport:
    """Closed-form Gram singular value sqrt(k1*k2) with its vector pair."""
    k1, k2 = form.k1, form.k2
    m, n = form.shape
    v = np.zeros(n)
    v[: 2 * k2] = np.concatenate([np.ones(k2), -np.ones(k2)]) / math.sqrt(2 * k2)
    u = np.zeros(m)
    u[: 2 * k1] = np.concatenate([-np.ones(k1), np.ones(k1)]) / math.sqrt(2 * k1)
    # back to the original coordinates
    v = v[list(form.col_perm.image)]
    u = u[list(form.row_perm.image)]
    return GramSingularReport(
        values=(math.sqrt(k1 * k2),),
        right_vectors=v.reshape(-1, 1),
        left_vectors=u.reshape(-1, 1),
        source="closed_form_rank1",
    )


# ---------------------------------------------------------------------------
# rank 2: form descriptions

M_INDEX_NAMES = {
    "M1": ("k", "l", "a", "b"),
    "M2": ("k", "l", "e", "f", "g", "h"),
    "M3": ("k", "l", "a", "b", "c", "d", "e", "f"),
    "M4": ("k", "l", "a", "b", "c", "d", "e", "f", "g", "h"),
    "M5": ("k", "l", "p", "q", "r", "s", "a", "b", "c", "d", "e", "f"),
}

# column-group sign patterns of the two (M1-M4) / three (M5) basis rows
_M_LAYOUT = {
    "M1": (("a", "b", "b", "a"), ((1, 1, -1, -1), (1, -1, 1, -1))),
    "M2": (("e", "f", "g", "h"), ((1, -1, 0, 0), (0, 0, 1, -1))),
    "M3": (("a", "b", "c", "d", "e", "f"), ((1, 1, -1, -1, 1, -1), (1, -1, 1, -1, 0, 0))),
    "M4": (
        ("a", "b", "c", "d", "e", "f", "g", "h"),
        ((1, 1, -1, -1, 1, -1, 0, 0), (1, -1, 1, -1, 0, 0, 1, -1)),
    ),
    "M5": (
        ("a", "b", "c", "d", "e", "f"),
        ((1, -1, 1, -1, 0, 0), (1, -1, 0, 0, 1, -1), (0, 0, 1, -1, -1, 1)),
    ),
}

# signature of each column group across the basis rows, in _M_LAYOUT order
_COL_SIGS = {m: tuple(zip(*pats)) for m, (_, pats) in _M_LAYOUT.items()}


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

    def as_dict(self) -> dict[str, int]:
        return dict(self.indices)


def _row_group_sizes(mtype: str, idx: dict[str, int]) -> list[int]:
    if mtype == "M5":
        return [idx[n] for n in ("k", "l", "p", "q", "r", "s")]
    return [idx["k"], idx["k"], idx["l"], idx["l"]]


def canonical_rank2_E(
    mtype: str, idx: dict[str, int], pad_rows: int = 0, pad_cols: int = 0
) -> SignedMatrix:
    col_names, pats = _M_LAYOUT[mtype]
    pats = np.array(pats, dtype=np.int8)
    # row groups in _row_group_sizes order: each basis pattern, then its negation
    table = np.stack([pats, -pats], axis=1).reshape(-1, pats.shape[1])
    core = np.repeat(table, _row_group_sizes(mtype, idx), axis=0)
    core = np.repeat(core, [idx[n] for n in col_names], axis=1)
    out = np.zeros((core.shape[0] + pad_rows, core.shape[1] + pad_cols), dtype=np.int8)
    out[: core.shape[0], : core.shape[1]] = core
    return SignedMatrix(out)


# ---------------------------------------------------------------------------
# rank 2: classification


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
    for mtype in ("M1", "M2", "M3", "M4") if width == 2 else ("M5",):
        allowed = set(_COL_SIGS[mtype])
        classes = {tuple(x != 0 for x in sig) for sig in allowed}
        for order in itertools.permutations(range(width)):
            for signs in itertools.product((1, -1), repeat=width):
                moved = {tuple(s * sig[t] for t, s in zip(order, signs)) for sig in sigs}
                if moved <= allowed and {tuple(x != 0 for x in sig) for sig in moved} == classes:
                    return mtype, order, signs
    return None


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
    a = E.int64()
    if not a.any():
        raise ValueError("E must be nonzero")
    if a.sum(axis=1).any() or a.sum(axis=0).any():
        return None

    for transposed in (False, True):
        b = a.T if transposed else a
        plus, minus, groups, zero_rows, zero_cols = _pattern_split(b)
        hit = _match(frozenset(groups)) if len(plus) in (2, 3) else None
        if hit is None:
            continue
        mtype, order, signs = hit
        bands = [(plus[t], minus[t]) if s > 0 else (minus[t], plus[t]) for t, s in zip(order, signs)]
        moved = {tuple(s * sig[t] for t, s in zip(order, signs)): cols for sig, cols in groups.items()}
        col_groups = [moved.get(sig, []) for sig in _COL_SIGS[mtype]]
        # M1 names each of a, b twice; the zero row sums make both counts equal
        idx = dict(zip(_M_LAYOUT[mtype][0], map(len, col_groups)))
        sizes = [len(part) for band in bands for part in band]
        idx.update(zip("klpqrs", sizes) if mtype == "M5" else (("k", sizes[0]), ("l", sizes[2])))
        row_order = [i for band in bands for part in band for i in part] + zero_rows
        col_order = [j for cols in col_groups for j in cols] + zero_cols
        canon = canonical_rank2_E(mtype, idx, len(zero_rows), len(zero_cols))
        if not np.array_equal(b[np.ix_(row_order, col_order)], canon.data):
            raise RuntimeError(f"{mtype} match does not map E onto its canonical form")
        return Rank2Form(
            mtype=mtype,
            indices=tuple((nm, idx[nm]) for nm in M_INDEX_NAMES[mtype]),
            row_perm=_perm_from_order(row_order),
            col_perm=_perm_from_order(col_order),
            transposed=transposed,
        )
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
    if all(t % 2 == 0 for t in rows + cols):
        return True
    if not (all(t % 2 for t in rows) or all(t % 2 for t in cols)):
        return False
    # proportional ratios (e+f)/(k+l) = (c+d)/(p+q) = (a+b)/(r+s)
    return (
        cols[2] * rows[1] == cols[1] * rows[0]
        and cols[1] * rows[2] == cols[0] * rows[1]
    )


# ---------------------------------------------------------------------------
# rank 2: completion


def _half_strip(rows: int, w1: int, w2: int) -> np.ndarray:
    """rows x (w1+w2) block whose signed row sums are all (w1-w2)/2."""
    d = (w1 - w2) // 2
    out = _Z(rows, w1 + w2)
    if d > 0:
        out[:, :d] = 1
    elif d < 0:
        out[:, w1 : w1 - d] = 1
    return out


def _complete_m4(k, l, a, b, c, d, e, f, g, h) -> np.ndarray:
    """The displayed witness layout for M1-M4 (absent indices zero)."""
    x = _half_strip(k, g, h)
    y = _half_strip(l, e, f)
    band1 = np.hstack([_Z(k, a), _Z(k, b), _J(k, c), _J(k, d), _Z(k, e), _J(k, f), x])
    band2 = np.hstack([_J(k, a), _J(k, b), _Z(k, c), _Z(k, d), _J(k, e), _Z(k, f), x])
    band3 = np.hstack([_Z(l, a), _J(l, b), _Z(l, c), _J(l, d), y, _Z(l, g), _J(l, h)])
    band4 = np.hstack([_J(l, a), _Z(l, b), _J(l, c), _Z(l, d), y, _J(l, g), _Z(l, h)])
    return np.vstack([band1, band2, band3, band4])


def _as_m4_indices(form: Rank2Form):
    d = form.as_dict()
    k, l = d["k"], d["l"]
    if form.mtype == "M1":
        return (k, l, d["a"], d["b"], d["b"], d["a"], 0, 0, 0, 0)
    if form.mtype == "M2":
        return (k, l, 0, 0, 0, 0, d["e"], d["f"], d["g"], d["h"])
    if form.mtype == "M3":
        return (k, l, d["a"], d["b"], d["c"], d["d"], d["e"], d["f"], 0, 0)
    return (k, l, d["a"], d["b"], d["c"], d["d"], d["e"], d["f"], d["g"], d["h"])


def _even_profile(m1: int, m2: int, n1: int, n2: int) -> np.ndarray:
    """(m1+m2) x (n1+n2) block with signed row sums (n1-n2)/2 and signed
    column sums (m1-m2)/2, allowing zero sub-sizes (pair sums even)."""
    if (m1 + m2) % 2 or (n1 + n2) % 2:
        raise ValueError("pair sums must be even")
    if m1 + m2 == 0 or n1 + n2 == 0:
        return _Z(m1 + m2, n1 + n2)
    if min(m1, m2, n1, n2) > 0:
        return gale_ryser.even_block(m1, m2, n1, n2).data.copy()
    if n1 == 0 or n2 == 0:
        w = max(n1, n2)  # all rows have plain sum w/2
        if m1 == 0 or m2 == 0:
            m = max(m1, m2)
            return gale_ryser.construct_urs([w // 2] * m, [m // 2] * w).data.copy()
        top = gale_ryser.spread_construction([w // 2] * m1, w).data
        bot = gale_ryser.spread_construction([w // 2] * m2, w).data
        return np.vstack([top, bot])
    # m1 == 0 or m2 == 0 with both column groups present: transpose view
    return _even_profile(n1, n2, max(m1, m2), 0).T.copy()


# the row and column index names that take the places of klpqrs and abcdef
# when the given block plays the X role
_M5_ROOTS = {"X": ("klpqrs", "abcdef"), "Y": ("pqklsr", "abefcd"), "Z": ("rsklqp", "cdfeab")}


def _m5_relabel(d: dict[str, int], root: str):
    """Indices that move the root block into the X role, with the row and
    column maps from the original canonical order to the relabelled one."""
    relabelled, orders = {}, []
    for names, src in zip(_M5_ROOTS["X"], _M5_ROOTS[root]):
        relabelled.update((new, d[old]) for new, old in zip(names, src))
        start = dict(zip(names, itertools.accumulate((d[n] for n in names), initial=0)))
        orders.append([i for n in src for i in range(start[n], start[n] + d[n])])
    return relabelled, *orders


def _assemble_m5(d: dict[str, int], X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    k, l, p, q, r, s = (d[n] for n in ("k", "l", "p", "q", "r", "s"))
    a, b, c, dd, e, f = (d[n] for n in ("a", "b", "c", "d", "e", "f"))
    band_k = np.hstack([_Z(k, a), _J(k, b), _Z(k, c), _J(k, dd), X[:k]])
    band_l = np.hstack([_J(l, a), _Z(l, b), _J(l, c), _Z(l, dd), X[k:]])
    band_p = np.hstack([_Z(p, a), _J(p, b), Y[:p], _Z(p, e), _J(p, f)])
    band_q = np.hstack([_J(q, a), _Z(q, b), Y[p:], _J(q, e), _Z(q, f)])
    band_r = np.hstack([Z[:r], _Z(r, c), _J(r, dd), _J(r, e), _Z(r, f)])
    band_s = np.hstack([Z[r:], _J(s, c), _Z(s, dd), _Z(s, e), _J(s, f)])
    return np.vstack([band_k, band_l, band_p, band_q, band_r, band_s])


def _complete_m5_even(d: dict[str, int]) -> np.ndarray:
    X = _even_profile(d["k"], d["l"], d["e"], d["f"])
    Y = _even_profile(d["p"], d["q"], d["c"], d["d"])
    Z = _even_profile(d["r"], d["s"], d["a"], d["b"])
    return _assemble_m5(d, X, Y, Z)


def _complete_m5_odd_rooted(d: dict[str, int]):
    """Diagonal construction at the X block, lemma-built Y and Z; None when
    a positivity hypothesis of the lemma fails."""
    k, l, p, q, r, s = (d[n] for n in ("k", "l", "p", "q", "r", "s"))
    a, b, c, dd, e, f = (d[n] for n in ("a", "b", "c", "d", "e", "f"))
    X = np.block([[_J(k, e), _Z(k, f)], [_Z(l, e), _J(l, f)]])
    try:
        if p + q == k + l:
            # equal sizes force q=k, p=l, c=e, d=f
            Y = np.block([[_Z(p, c), _J(p, dd)], [_J(q, c), _Z(q, dd)]])
        else:
            if min(l, k, f, e, p, q, dd, c) <= 0:
                return None
            # built over the swapped column split (d,c), then swapped back
            w = gale_ryser.proportional_block(l, k, f, e, p, q, dd, c).data
            Y = np.hstack([w[:, dd:], w[:, :dd]])
        if r + s == k + l:
            Z = np.block([[_J(r, a), _Z(r, b)], [_Z(s, a), _J(s, b)]])
        else:
            if min(l, k, f, e, r, s, a, b) <= 0:
                return None
            Z = gale_ryser.proportional_block(l, k, f, e, r, s, a, b).data.copy()
    except ValueError:
        return None
    return _assemble_m5(d, X, Y, Z)


def _row_candidates(n1: int, n2: int, target: int) -> list[np.ndarray]:
    out = []
    for bits in itertools.product((0, 1), repeat=n1 + n2):
        v = np.array(bits, dtype=np.int8)
        if int(v[:n1].sum()) - int(v[n1:].sum()) == target:
            out.append(v)
    return out


def _search_block(m1, m2, n1, n2, r1, r2, c1, c2):
    """Backtracking search for a block with the given signed-sum profile.
    Targets for empty bands are ignored.  Desk-scale sizes only."""
    m, n = m1 + m2, n1 + n2
    if m == 0 or n == 0:
        return _Z(m, n)
    rows_spec = [(r1, 1)] * m1 + [(r2, -1)] * m2
    cands = {}
    for tgt, _ in rows_spec:
        if tgt not in cands:
            cands[tgt] = _row_candidates(n1, n2, tgt)
    col_target = np.array([c1] * n1 + [c2] * n2, dtype=np.int64)
    chosen = np.zeros((m, n), dtype=np.int8)
    cur = np.zeros(n, dtype=np.int64)

    def feasible(i):
        rem_plus = sum(1 for t, sgn in rows_spec[i:] if sgn == 1)
        rem_minus = m - i - rem_plus
        lo = cur - rem_minus
        hi = cur + rem_plus
        return ((col_target >= lo) & (col_target <= hi)).all()

    def rec(i):
        nonlocal cur
        if i == m:
            return (cur == col_target).all()
        tgt, sgn = rows_spec[i]
        for v in cands[tgt]:
            chosen[i] = v
            cur += sgn * v
            if feasible(i + 1) and rec(i + 1):
                return True
            cur -= sgn * v
        return False

    if rec(0):
        return chosen
    return None


def _complete_m5_search(d: dict[str, int]):
    """Parameter-profile enumeration with per-block backtracking; covers the
    degenerate odd cases that the structured constructions skip."""
    k, l, p, q, r, s = (d[n] for n in ("k", "l", "p", "q", "r", "s"))
    a, b, c, dd, e, f = (d[n] for n in ("a", "b", "c", "d", "e", "f"))

    def chain_range(members):
        """The intersection of the present members' ranges, or None if none is present."""
        ranges = [rng for present, rng in members if present]
        if not ranges:
            return None
        return max(lo for lo, _ in ranges), min(hi for _, hi in ranges)

    # value chains x1=y2=-z2 and x2=y1=-z1
    c1r = chain_range([(k > 0, (-f, e)), (q > 0, (-dd, c)), (s > 0, (-a, b))])
    c2r = chain_range([(l > 0, (-f, e)), (p > 0, (-dd, c)), (r > 0, (-a, b))])
    sum_rows = (k > 0 and l > 0) or (p > 0 and q > 0) or (r > 0 and s > 0)
    # column chains gamma1=beta2=-alpha2 and gamma2=beta1=-alpha1
    d1r = chain_range([(f > 0, (-k, l)), (dd > 0, (-q, p)), (a > 0, (-s, r))])
    d2r = chain_range([(e > 0, (-k, l)), (c > 0, (-q, p)), (b > 0, (-r, s))])
    sum_cols = (e > 0 and f > 0) or (c > 0 and dd > 0) or (a > 0 and b > 0)

    def span(rng):
        if rng is None:
            return [None]
        return list(range(rng[0], rng[1] + 1))

    E = canonical_rank2_E("M5", d)
    for v1 in span(c1r):
        v2_opts = span(c2r)
        if sum_rows and c1r is not None and c2r is not None:
            v2_opts = [e - f - v1] if c2r[0] <= e - f - v1 <= c2r[1] else []
        for v2 in v2_opts:
            for w1 in span(d1r):
                w2_opts = span(d2r)
                if sum_cols and d1r is not None and d2r is not None:
                    w2_opts = [l - k - w1] if d2r[0] <= l - k - w1 <= d2r[1] else []
                for w2 in w2_opts:
                    X = _search_block(
                        k, l, e, f,
                        v1, v2,
                        None if w2 is None else -w2,
                        None if w1 is None else -w1,
                    )
                    if X is None:
                        continue
                    Y = _search_block(p, q, c, dd, v2, v1, w2, w1)
                    if Y is None:
                        continue
                    Z = _search_block(
                        r, s, a, b,
                        None if v2 is None else -v2,
                        None if v1 is None else -v1,
                        w1, w2,
                    )
                    if Z is None:
                        continue
                    cand = _assemble_m5(d, X, Y, Z)
                    if is_realizable_witness(E, BinaryMatrix(cand)):
                        return cand
    return None


def _complete_m5(d: dict[str, int]) -> np.ndarray:
    rows = (d["k"] + d["l"], d["p"] + d["q"], d["r"] + d["s"])
    cols = (d["a"] + d["b"], d["c"] + d["d"], d["e"] + d["f"])
    if all(t % 2 == 0 for t in rows + cols):
        return _complete_m5_even(d)
    # odd/proportional branch: put the smallest block in the X role
    E = canonical_rank2_E("M5", d)
    sizes = {"X": rows[0], "Y": rows[1], "Z": rows[2]}
    for root in sorted(sizes, key=lambda nm: (sizes[nm], nm)):
        dr, row_order, col_order = _m5_relabel(d, root)
        cand = _complete_m5_odd_rooted(dr)
        if cand is not None:
            out = np.zeros_like(cand)
            out[np.ix_(row_order, col_order)] = cand
            if is_realizable_witness(E, BinaryMatrix(out)):
                return out
    cand = _complete_m5_search(d)
    if cand is None:
        raise RuntimeError("witness construction failed for a realizable M5 form")
    return cand


def rank2_complete(form: Rank2Form) -> BinaryMatrix:
    """A witness A (original coordinates) such that (A, A+E) is a Gram pair."""
    if not rank2_realizable(form):
        raise NotRealizableError(f"form {form.mtype} {form.as_dict()} is not realizable")
    d = form.as_dict()
    core = _complete_m5(d) if form.mtype == "M5" else _complete_m4(*_as_m4_indices(form))
    full = np.zeros((form.row_perm.size, form.col_perm.size), dtype=np.int8)
    full[: core.shape[0], : core.shape[1]] = core
    A, E = _to_original(form, BinaryMatrix(full), _padded_canonical_E(form))
    # never emit an unverified witness, also under python -O
    if not is_realizable_witness(E, A):
        raise RuntimeError(f"completion of {form.mtype} {d} failed Gram verification")
    return A


def reconstruct_E(form: Rank2Form) -> SignedMatrix:
    """The original difference matrix described by the form."""
    (E,) = _to_original(form, _padded_canonical_E(form))
    return E


def _padded_canonical_E(form: Rank2Form) -> SignedMatrix:
    """canonical_rank2_E of the form, padded with zeros to the form's size."""
    d = form.as_dict()
    pad_r = form.row_perm.size - sum(_row_group_sizes(form.mtype, d))
    pad_c = form.col_perm.size - sum(d[n] for n in _M_LAYOUT[form.mtype][0])
    return canonical_rank2_E(form.mtype, d, pad_r, pad_c)


def _to_original(form: Rank2Form, *mats):
    """Matrices in the form's canonical coordinates, mapped back to E's.

    With P, Q the form's row and column permutations, original entry (i, j)
    is canonical entry (P(i), Q(j)) (of the transpose when form.transposed),
    so mapping back gathers by the images and inverts neither permutation.
    """
    rows, cols = np.ix_(form.row_perm.image, form.col_perm.image)
    out = [type(M)(M.data[rows, cols]) for M in mats]
    return [M.transpose() for M in out] if form.transposed else out


# ---------------------------------------------------------------------------
# rank 2: closed-form Gram singular data


def _eig2(m11: Fraction, m12: Fraction, m21: Fraction, m22: Fraction):
    """Eigenvalues (desc) and eigenvectors of a real 2x2 with real spectrum."""
    tr = m11 + m22
    disc = (m11 - m22) ** 2 + 4 * m12 * m21
    if disc < 0:
        raise RuntimeError("closed-form 2x2 matrix has complex eigenvalues")
    root = math.sqrt(float(disc))
    lams = [(float(tr) + root) / 2.0, (float(tr) - root) / 2.0]
    vecs = []
    for lam in lams:
        cand1 = np.array([float(m12), lam - float(m11)])
        cand2 = np.array([lam - float(m22), float(m21)])
        v = cand1 if np.abs(cand1).max() >= np.abs(cand2).max() else cand2
        if np.abs(v).max() < 1e-12:
            v = np.array([1.0, 0.0]) if lam == lams[0] else np.array([0.0, 1.0])
        vecs.append(v / np.linalg.norm(v))
    return lams, vecs, float(disc)


def rank2_gram_data(form: Rank2Form) -> GramSingularReport:
    """Closed-form singular values and vectors of E/2, from the form's indices.

    They are the Gram singular data of (A, A+E) for every witness A whose
    pair is convertible (gram.convertibility); the form alone does not decide
    whether a given witness is.  The rank2_complete witness is convertible
    for M1-M4 but not always for M5: of the 2,145 M5 forms with indices at
    most 3, 296 complete to a pair that is not convertible.  The vectors
    satisfy (-E/2) v = sigma u.
    """
    d = form.as_dict()
    if form.mtype == "M5":
        k, l, p, q, r, s = (Fraction(d[n]) for n in ("k", "l", "p", "q", "r", "s"))
        ia, ib, ic, id_, ie, if_ = (Fraction(d[n]) for n in ("a", "b", "c", "d", "e", "f"))
        m11 = l * (ia + ic) + s * (ic + id_) / 2 + (k - l) * (ia + ib) / 4
        m12 = l * (ia + ib) / 2 - s * (ie + if_) / 2 + (k - l) * (ia + ie) / 2
        m21 = q * (ia + ib) / 2 - r * (ic + id_) / 2 + (p - q) * (ia + ic) / 2
        m22 = q * (ia + ie) + r * (ie + if_) / 2 + (p - q) * (ia + ib) / 4
    else:
        k, l, ia, ib, ic, id_, ie, if_, ig, ih = (Fraction(t) for t in _as_m4_indices(form))
        m11 = k * (ia + ib + ie)
        m12 = k * (ia - ib - ic + id_) / 2
        m21 = l * (ia - ib - ic + id_) / 2
        m22 = l * (ia + ic + ig)

    lams, zetas, disc = _eig2(m11, m12, m21, m22)
    if any(lam <= 0 for lam in lams):
        raise RuntimeError("closed-form eigenvalues must be positive for rank 2")
    # the first two basis patterns of the layout, over the column groups
    col_names, pats = _M_LAYOUT[form.mtype]
    x1, x2 = (np.repeat(np.array(pat, dtype=np.float64), [d[n] for n in col_names]) for pat in pats[:2])
    if disc == 0.0:
        # repeated value: orthonormalize within the span
        v1 = x1 / np.linalg.norm(x1)
        v2 = x2 - (v1 @ x2) * v1
        v2 = v2 / np.linalg.norm(v2)
        rights = [v1, v2]
    else:
        rights = []
        for z in zetas:
            v = z[0] * x1 + z[1] * x2
            rights.append(v / np.linalg.norm(v))

    pad_c = form.col_perm.size - len(x1)
    pad_r = form.row_perm.size - sum(_row_group_sizes(form.mtype, d))
    e_can = canonical_rank2_E(form.mtype, d).int64().astype(np.float64)
    values, rv, lv = [], [], []
    for lam, v in zip(lams, rights):
        sigma = math.sqrt(lam)
        nz = np.nonzero(np.abs(v) > 1e-8)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        u = (-0.5 * e_can) @ v / sigma
        values.append(sigma)
        # back to the original coordinates
        rv.append(np.concatenate([v, np.zeros(pad_c)])[list(form.col_perm.image)])
        lv.append(np.concatenate([u, np.zeros(pad_r)])[list(form.row_perm.image)])
    right = np.column_stack(rv)
    left = np.column_stack(lv)
    if form.transposed:
        right, left = left, right
    return GramSingularReport(
        values=tuple(values),
        right_vectors=right,
        left_vectors=left,
        source="closed_form_rank2",
    )
