import itertools

import numpy as np
import pytest

from grammate import oracle
from grammate.gram import is_gram_pair
from grammate.iso import (
    NON_ISOMORPHIC,
    UNDECIDED,
    IsoWitness,
    RemainingContext,
    are_isomorphic,
    is_fixable,
    iso_distinct_sv,
    remaining_context,
    sum_separation,
)
from grammate.matrix_core import BinaryMatrix, Permutation
from grammate.numerics import distinct_singular_values
from grammate.rank_forms import canonical_rank1_E

EXCHANGE = BinaryMatrix(np.array([[0, 1], [1, 0]], dtype=np.int8))
I2 = BinaryMatrix(np.eye(2, dtype=np.int8))


def pair7(rank1_example):
    A, B, _ = rank1_example
    return is_gram_pair(A, B)


def pair10(same_entries_example):
    A, E = same_entries_example
    B = BinaryMatrix((A.int64() + E.int64()).astype(np.int8))
    return is_gram_pair(A, B)


class TestRemainingContext:
    def test_empty_for_canonical_blocks(self):
        ctx = remaining_context(is_gram_pair(EXCHANGE, I2))
        assert ctx.Y.size == 0 and ctx.alpha == (0, 1) and ctx.beta == (0, 1)

    def test_paper_7x7(self, rank1_example):
        ctx = remaining_context(pair7(rank1_example))
        assert (ctx.k1, ctx.k2) == (2, 2)
        assert ctx.Y.shape == (3, 3) and (ctx.Y == 1).all()
        assert ctx.alpha == (0, 1, 2, 3) and ctx.beta == (0, 1, 2, 3)

    def test_untouched_block_agrees(self, same_entries_example):
        A, E = same_entries_example
        p = pair10(same_entries_example)
        ctx = remaining_context(p)
        rest_r = [i for i in range(10) if i not in ctx.alpha]
        rest_c = [j for j in range(10) if j not in ctx.beta]
        a, b = p.A.int64(), p.B.int64()
        assert (a[np.ix_(rest_r, rest_c)] == b[np.ix_(rest_r, rest_c)]).all()

    def test_rank2_rejected(self):
        a = BinaryMatrix(np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int8))
        b = BinaryMatrix(np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int8))
        p = is_gram_pair(a, b)
        assert p is not None and p.diff_rank == 2
        with pytest.raises(ValueError):
            remaining_context(p)


class TestIsFixable:
    def test_nonisomorphic_borders_not_fixable(self, rank1_example):
        assert is_fixable(remaining_context(pair7(rank1_example))) is False

    def test_same_entries_example_fixable(self, same_entries_example):
        assert is_fixable(remaining_context(pair10(same_entries_example))) is True

    def test_empty_remaining_matrix_fixable(self):
        assert is_fixable(remaining_context(is_gram_pair(EXCHANGE, I2))) is True

    def test_cap_yields_undecided(self, same_entries_example):
        assert is_fixable(remaining_context(pair10(same_entries_example)), node_cap=1) == UNDECIDED


class TestAreIsomorphic:
    def test_identity_on_equal(self, rank1_example):
        A, _, _ = rank1_example
        w = are_isomorphic(A, A)
        assert w.P.image == tuple(range(7)) and w.Q.image == tuple(range(7))

    def test_paper_7x7_nonisomorphic(self, rank1_example):
        A, B, _ = rank1_example
        assert are_isomorphic(A, B) == NON_ISOMORPHIC

    def test_same_entries_isomorphic(self, same_entries_example):
        p = pair10(same_entries_example)
        w = are_isomorphic(p.A, p.B)
        assert isinstance(w, IsoWitness)
        assert (w.P.matrix().int64() @ p.A.int64() @ w.Q.matrix().int64() == p.B.int64()).all()

    def test_witness_in_gram_automorphism_groups(self, same_entries_example):
        p = pair10(same_entries_example)
        w = are_isomorphic(p.A, p.B)
        a = p.A.int64()
        pm, qm = w.P.matrix().int64(), w.Q.matrix().int64()
        assert (pm @ (a @ a.T) @ pm.T == a @ a.T).all()
        assert (qm.T @ (a.T @ a) @ qm == a.T @ a).all()

    def test_shuffled_matrix(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, size=(5, 6)).astype(np.int8)
        b = a[rng.permutation(5), :][:, rng.permutation(6)]
        w = are_isomorphic(BinaryMatrix(a), BinaryMatrix(b))
        assert isinstance(w, IsoWitness)

    def test_cap_yields_undecided(self, same_entries_example):
        p = pair10(same_entries_example)
        assert are_isomorphic(p.A, p.B, node_cap=1) == UNDECIDED


class TestIsoDistinctSv:
    def test_precondition(self):
        with pytest.raises(ValueError):
            iso_distinct_sv(is_gram_pair(EXCHANGE, I2))

    def test_agrees_with_fixable_on_generated_family(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 25:
            e = canonical_rank1_E(1, 1, 2, 2)
            a = rng.integers(0, 2, size=(4, 4))
            a[:2, :2] = [[0, 1], [1, 0]]
            a[1, 2:] = a[0, 2:]
            a[2:, 1] = a[2:, 0]
            b = a + e.int64()
            A = BinaryMatrix(a.astype(np.int8))
            B = BinaryMatrix(b.astype(np.int8))
            p = is_gram_pair(A, B)
            if p is None or p.diff_rank != 1 or not distinct_singular_values(A):
                continue
            verdict = iso_distinct_sv(p)
            fixable = is_fixable(remaining_context(p))
            assert isinstance(verdict, IsoWitness) == (fixable is True)
            if isinstance(verdict, IsoWitness):
                assert verdict.P.is_involution() and verdict.Q.is_involution()
            checked += 1


class TestSumSeparation:
    def test_paper_10x10_separated(self, same_entries_example):
        A, _ = same_entries_example
        ctx = remaining_context(pair10(same_entries_example))
        assert sum_separation(A, ctx) is True

    def test_paper_7x7_shares_a_sum(self, rank1_example):
        A, _, _ = rank1_example
        ctx = remaining_context(pair7(rank1_example))
        assert sum_separation(A, ctx) is False

    def test_empty_remaining_vacuous(self):
        ctx = remaining_context(is_gram_pair(EXCHANGE, I2))
        assert sum_separation(EXCHANGE, ctx) is True

    def test_separated_means_iso_iff_fixable(self, same_entries_example):
        p = pair10(same_entries_example)
        ctx = remaining_context(p)
        assert sum_separation(p.A, ctx)
        assert isinstance(are_isomorphic(p.A, p.B), IsoWitness) == (is_fixable(ctx) is True)


def _keeping(k, fixed):
    """Every permutation of range(k), as an array row, that maps the set fixed onto itself."""
    return np.array([p for p in itertools.permutations(range(k))
                     if {p[i] for i in fixed} == set(fixed)])


def _brute_force(a, b, row_fixed=(), col_fixed=()):
    """Is b = a[p][:, q] for some row and column permutations that keep the given sets?"""
    rows, cols = _keeping(a.shape[0], row_fixed), _keeping(a.shape[1], col_fixed)
    return bool((a[rows[:, None, :, None], cols[None, :, None, :]] == b).all(axis=(2, 3)).any())


class TestBruteForce:
    """The search against every (P, Q), on every small input of a kind."""

    def test_gram_pairs(self):
        seen = 0
        for m, n in ((3, 3), (3, 4), (4, 3)):
            for p in oracle.enumerate_gram_pairs(m, n):
                a, b = p.A.int64(), p.B.int64()
                assert isinstance(are_isomorphic(p.A, p.B), IsoWitness) == _brute_force(a, b)
                if p.diff_rank == 1:
                    ctx = remaining_context(p)
                    assert is_fixable(ctx) is _brute_force(a, b, ctx.alpha, ctx.beta)
                    seen += 1
        assert seen > 1000

    def test_equal_sum_multisets(self):
        # every Gram pair above is isomorphic; these 3x3 pairs include non-isomorphic ones
        groups = {}
        for bits in itertools.product((0, 1), repeat=9):
            a = np.array(bits).reshape(3, 3)
            groups.setdefault((tuple(sorted(a.sum(1))), tuple(sorted(a.sum(0)))), []).append(a)
        verdicts = set()
        for group in groups.values():
            for a, b in itertools.combinations(group, 2):
                truth = _brute_force(a, b)
                w = are_isomorphic(BinaryMatrix(a), BinaryMatrix(b))
                assert isinstance(w, IsoWitness) == truth
                verdicts.add(truth)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("k1,k2,m3,n3", [(1, 1, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2),
                                             (1, 1, 2, 2), (2, 1, 1, 1), (1, 2, 1, 1)])
    def test_fixable_every_context(self, k1, k2, m3, n3):
        """Every filling of X1..X4 and Y: fixable iff some border-keeping (P, Q) maps A to B."""
        shapes = [(k1, n3), (k1, n3), (m3, k2), (m3, k2), (m3, n3)]
        sizes = [r * c for r, c in shapes]
        j, z = np.ones((k1, k2), dtype=np.int64), np.zeros((k1, k2), dtype=np.int64)
        verdicts = set()
        for bits in itertools.product((0, 1), repeat=sum(sizes)):
            cuts = np.cumsum([0] + sizes)
            x1, x2, x3, x4, y = (np.array(bits[cuts[i]:cuts[i + 1]], dtype=np.int64).reshape(shapes[i])
                                 for i in range(5))
            a = np.block([[j, z, x1], [z, j, x2], [x3, x4, y]])
            b = np.block([[z, j, x1], [j, z, x2], [x3, x4, y]])
            ctx = RemainingContext(
                alpha=tuple(range(2 * k1)), beta=tuple(range(2 * k2)), k1=k1, k2=k2,
                X1=x1.astype(np.int8), X2=x2.astype(np.int8), X3=x3.astype(np.int8),
                X4=x4.astype(np.int8), Y=y.astype(np.int8),
                row_perm=Permutation.identity(2 * k1 + m3),
                col_perm=Permutation.identity(2 * k2 + n3))
            truth = _brute_force(a, b, ctx.alpha, ctx.beta)
            assert is_fixable(ctx) is truth
            verdicts.add(truth)
        assert verdicts == {True, False}
