"""End-to-end acceptance checks: worked examples at their stated tolerances
and time budgets, plus exhaustive/randomized sweeps."""

import itertools
import time

import numpy as np

from grammate import combinators, gale_ryser, oracle, rank_forms
from grammate.gram import convertibility, is_gram_pair
from grammate.iso import (
    NON_ISOMORPHIC,
    IsoWitness,
    are_isomorphic,
    distinct_singular_values,
    is_fixable,
    iso_distinct_sv,
    remaining_context,
    sum_separation,
)
from grammate.matrix_core import BinaryMatrix, rank_exact
from grammate.rank_forms import (
    canonical_rank1_E,
    canonical_rank2_E,
    classify_rank1,
    classify_rank2,
    rank2_complete,
    rank2_gram_data,
    rank2_realizable,
)


def timed(budget):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"

    return check


def test_01_rank1_example_verify_and_convertible(rank1_example):
    done = timed(0.1)
    A, B, _ = rank1_example
    pair = is_gram_pair(A, B)
    assert pair is not None
    rep = convertibility(pair)
    assert rep.convertible
    assert abs(rep.gram_singular.values[0] - 2.0) < 1e-9
    v = rep.gram_singular.right_vectors[:, 0]
    target = np.array([1, 1, -1, -1, 0, 0, 0]) / 2.0
    assert min(np.abs(v - target).max(), np.abs(v + target).max()) < 1e-8
    done()


def test_02_rank1_example_nonisomorphic_not_fixable(rank1_example):
    done = timed(1.0)
    A, B, _ = rank1_example
    assert are_isomorphic(A, B) == NON_ISOMORPHIC
    assert is_fixable(remaining_context(is_gram_pair(A, B))) is False
    done()


def test_03_same_entries_example_isomorphic_fixable_separated(same_entries_example):
    done = timed(5.0)
    A, E = same_entries_example
    B = BinaryMatrix((A.int64() + E.int64()).astype(np.int8))
    pair = is_gram_pair(A, B)
    w = are_isomorphic(A, B)
    assert isinstance(w, IsoWitness)
    assert (w.P.matrix().int64() @ A.int64() @ w.Q.matrix().int64() == B.int64()).all()
    ctx = remaining_context(pair)
    assert is_fixable(ctx) is True
    assert sum_separation(A, ctx) is True
    done()


def test_04_spread_construction_example():
    m = gale_ryser.spread_construction((3, 3, 0, 2, 3), 4)
    expected = np.array(
        [[1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1], [1, 1, 1, 0]]
    )
    assert (m.data == expected).all()


def test_05_conjugate_example():
    assert gale_ryser.conjugate((3, 3, 3, 3, 3), 5) == (5, 5, 5, 0, 0)


def test_06_identity_mates_count_and_convertibility():
    done = timed(0.1)
    i4 = BinaryMatrix.identity(4)
    mates = oracle.enumerate_mates_of(i4)
    assert len(mates) == 23
    for b in mates:
        m = b.int64()
        assert (m @ m.T == np.eye(4)).all()
    conv = sum(1 for b in mates if convertibility(is_gram_pair(i4, b)).convertible)
    assert conv == 9
    done()


def test_07_exhaustive_validation_up_to_4x4():
    done = timed(60.0)
    from grammate.matrix_core import col_sums, row_sums

    for m, n in itertools.product(range(2, 5), range(2, 5)):
        if m * n > 16:
            continue
        for pair in oracle.enumerate_gram_pairs(m, n):
            assert row_sums(pair.A) == row_sums(pair.B)
            assert col_sums(pair.A) == col_sums(pair.B)
            if pair.diff_rank == 1:
                assert classify_rank1(pair.diff()) is not None
            convertibility(pair)  # raises if the seven conditions disagree
    done()


def _valid_m14_forms(limit):
    """Realizable M1-M4 index dictionaries, every index in 1..4."""
    out = []
    for k, l, a, b in itertools.product(range(1, 5), repeat=4):
        out.append(("M1", dict(k=k, l=l, a=a, b=b)))
    for k, l, e, g in itertools.product(range(1, 4), repeat=4):
        out.append(("M2", dict(k=k, l=l, e=e, f=e, g=g, h=g)))
    for k, l, ia, ib, c, e in itertools.product(range(1, 3), repeat=6):
        d = ia - ib + c
        f = e - 2 * (c - ib)
        if 1 <= d <= 4 and 1 <= f <= 4:
            out.append(("M3", dict(k=k, l=l, a=ia, b=ib, c=c, d=d, e=e, f=f)))
    for k, l, ia, ib, c, d in itertools.product(range(1, 3), repeat=6):
        for e, g in itertools.product(range(1, 4), repeat=2):
            f = e - (c + d - ia - ib)
            h = g - (ib + d - ia - c)
            if not (1 <= f <= 4 and 1 <= h <= 4):
                continue
            if (e - f) % 2 or (g - h) % 2:
                continue
            out.append(("M4", dict(k=k, l=l, a=ia, b=ib, c=c, d=d, e=e, f=f, g=g, h=h)))
    return out[:limit]


def test_08_closed_form_matches_numeric_gram_values():
    done = timed(30.0)
    forms = _valid_m14_forms(400)
    assert len(forms) >= 200
    for mtype, idx in forms:
        E = canonical_rank2_E(mtype, idx)
        assert rank_exact(E) == 2
        form = classify_rank2(E)
        assert form is not None and rank2_realizable(form)
        closed = sorted(rank2_gram_data(form).values)
        sig = np.linalg.svd(E.int64() / 2.0, compute_uv=False)
        numeric = sorted(s for s in sig if s > 1e-9)
        assert len(closed) == len(numeric)
        assert max(abs(c - x) for c, x in zip(closed, numeric)) < 1e-9
    done()


def _m5_tuples(bound):
    """All zero-sum M5 index tuples with every index in 0..bound."""
    rng = range(bound + 1)
    for k, l, p, r, ia, c, d, e in itertools.product(rng, repeat=8):
        q = p + (k - l)
        s = r + (k - l)
        ib = ia - (d - c)
        f = e + (d - c)
        if all(0 <= v <= bound for v in (q, s, ib, f)):
            yield dict(k=k, l=l, p=p, q=q, r=r, s=s, a=ia, b=ib, c=c, d=d, e=e, f=f)


def _witness_exists(E):
    """Exhaustive search for A with (A, A+E) a Gram pair."""
    e = E.int64()
    base = np.where(e == -1, 1, 0).astype(np.int64)
    free = np.argwhere(e == 0)
    z = len(free)
    assert z <= 14, "search space too large for the exhaustive check"
    for bits in range(1 << z):
        a = base.copy()
        for t in range(z):
            if bits >> t & 1:
                a[free[t][0], free[t][1]] = 1
        if is_gram_pair(BinaryMatrix(a.astype(np.int8)),
                        BinaryMatrix((a + e).astype(np.int8))) is not None:
            return True
    return False


def test_09_m5_realizability_agrees_with_completion():
    done = timed(120.0)
    predicted_true = 0
    refuted = searched = 0
    for idx in _m5_tuples(3):
        if sum(idx[n] for n in "klpqrs") == 0 or sum(idx[n] for n in "abcdef") == 0:
            continue
        E = canonical_rank2_E("M5", idx)
        if not E.int64().any() or rank_exact(E) != 2:
            continue
        form = classify_rank2(E)
        assert form is not None
        if rank2_realizable(form):
            predicted_true += 1
            A = rank2_complete(form)
            B = BinaryMatrix((A.int64() + E.int64()).astype(np.int8))
            assert is_gram_pair(A, B) is not None
            # the witness is [E = -1] outside the zero cells of E
            assert ((A.data == (E.data == -1)) | (E.data == 0)).all()
        else:
            if form.mtype == "M5":
                # the exact block-profile search agrees: no profile completes it
                _, d, canon = rank_forms._canonical_of(form)
                assert rank_forms._complete_m5(canon, d) is None
                searched += 1
            if int((E.int64() == 0).sum()) <= 12:
                assert not _witness_exists(E)
                refuted += 1
    assert predicted_true > 1000
    assert refuted > 10
    assert searched > 1000
    done()


def test_10_combinator_closure_500_random_compositions():
    done = timed(30.0)
    rng = np.random.default_rng(7)
    seed = is_gram_pair(BinaryMatrix(np.array([[0, 1], [1, 0]], dtype=np.int8)),
                        BinaryMatrix.identity(2))
    ops = ("complement", "dirsum", "join", "kron", "kron-swap", "block-swap")
    pair = seed
    produced = 0
    while produced < 500:
        if pair.A.rows * pair.A.cols > 200:
            pair = seed
        op = ops[rng.integers(len(ops))]
        try:
            if op == "complement":
                pair = combinators.complement_pair(pair)
            elif op == "dirsum":
                pair = combinators.direct_sum_pair(pair, seed)
            elif op == "join":
                pair = combinators.join_pair(pair, seed)
            elif op == "kron":
                pair = combinators.kron_pair(pair, seed)
            elif op == "kron-swap":
                pair = combinators.kron_swap(pair)
            else:
                pair = combinators.block_swap_pair(pair.A, pair.B)
        except ValueError:
            pair = seed
            continue
        assert is_gram_pair(pair.A, pair.B) is not None
        produced += 1
    done()


def test_11_reconstruction_of_all_3x3_with_distinct_positive_svs():
    done = timed(60.0)
    checked = 0
    for bits in range(1, 512):
        a = np.array([(bits >> t) & 1 for t in range(9)], dtype=np.int8).reshape(3, 3)
        sig = np.linalg.svd(a.astype(np.int64), compute_uv=False)
        pos = [s for s in sig if s > 1e-9]
        if any(pos[i] - pos[i + 1] <= 1e-8 * max(1.0, pos[i]) for i in range(len(pos) - 1)):
            continue
        a64 = a.astype(np.int64)
        found = oracle.matrices_with_grams(a64 @ a64.T, a64.T @ a64, oracle.DEFAULT_MATE_NODE_CAP)
        assert any((m.int64() == a64).all() for m in found)
        for m in found:
            b = m.int64()
            assert (b @ b.T == a64 @ a64.T).all() and (b.T @ b == a64.T @ a64).all()
        checked += 1
    assert checked > 100
    done()


def test_12_distinct_sv_isomorphism_equals_fixability():
    done = timed(120.0)
    rng = np.random.default_rng(13)
    checked = 0
    for n in itertools.cycle(range(4, 11)):
        if checked >= 50:
            break
        e = canonical_rank1_E(1, 1, n - 2, n - 2)
        a = rng.integers(0, 2, size=(n, n))
        a[:2, :2] = [[0, 1], [1, 0]]
        a[1, 2:] = a[0, 2:]
        a[2:, 1] = a[2:, 0]
        A = BinaryMatrix(a.astype(np.int8))
        B = BinaryMatrix((a + e.int64()).astype(np.int8))
        pair = is_gram_pair(A, B)
        if pair is None or pair.diff_rank != 1:
            continue
        if not distinct_singular_values(a):
            continue
        verdict = iso_distinct_sv(pair)
        fixable = is_fixable(remaining_context(pair))
        assert isinstance(verdict, IsoWitness) == (fixable is True)
        if isinstance(verdict, IsoWitness):
            assert verdict.P.is_involution() and verdict.Q.is_involution()
        checked += 1
    assert checked >= 50
    done()
