import functools
import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grammate import iso, oracle
from grammate.combinators import kron_pair, kron_swap
from grammate.gram import GramPair, is_gram_pair
from grammate.iso import (
    NON_ISOMORPHIC,
    UNDECIDED,
    _REL_TOL,
    IsoWitness,
    RemainingContext,
    _fingerprints,
    are_isomorphic,
    distinct_singular_values,
    is_fixable,
    iso_distinct_sv,
    remaining_context,
    sum_separation,
)
from grammate.matrix_core import BinaryMatrix, Permutation, _gram, apply_perms
from grammate.rank_forms import Rank1Form, canonical_rank1_E

EXCHANGE = BinaryMatrix(np.array([[0, 1], [1, 0]], dtype=np.int8))
I2 = BinaryMatrix(np.eye(2, dtype=np.int8))


def pair7(rank1_example):
    A, B, _ = rank1_example
    return is_gram_pair(A, B)


def pair10(same_entries_example):
    A, E = same_entries_example
    B = BinaryMatrix((A.int64() + E.int64()).astype(np.int8))
    return is_gram_pair(A, B)


def touched(p):
    """The rows and the columns where the pair's difference is nonzero."""
    d = p.diff().int64()
    return tuple(np.flatnonzero(d.any(axis=1))), tuple(np.flatnonzero(d.any(axis=0)))


class TestRemainingContext:
    def test_empty_for_canonical_blocks(self):
        p = is_gram_pair(EXCHANGE, I2)
        ctx = remaining_context(p)
        assert ctx.A == I2 and (ctx.form.k1, ctx.form.k2) == (1, 1)
        assert touched(p) == ((0, 1), (0, 1))

    def test_paper_7x7(self, rank1_example):
        p = pair7(rank1_example)
        ctx = remaining_context(p)
        assert (ctx.form.k1, ctx.form.k2) == (2, 2)
        assert (ctx.A.int64()[4:, 4:] == 1).all()
        assert touched(p) == ((0, 1, 2, 3), (0, 1, 2, 3))

    def test_B_is_A_with_the_J_blocks_swapped(self, rank1_example, same_entries_example, rank1_6x6_example):
        for p in (pair7(rank1_example), pair10(same_entries_example), is_gram_pair(*rank1_6x6_example)):
            ctx = remaining_context(p)
            k1, k2 = ctx.form.k1, ctx.form.k2
            j, z = np.ones((k1, k2)), np.zeros((k1, k2))
            a = ctx.A.int64()
            b = apply_perms(p.B, ctx.form.row_perm, ctx.form.col_perm).int64()
            assert (a[:2 * k1, :2 * k2] == np.block([[j, z], [z, j]])).all()
            assert (b[:2 * k1, :2 * k2] == np.block([[z, j], [j, z]])).all()
            b[:2 * k1, :2 * k2] = a[:2 * k1, :2 * k2]
            assert (a == b).all()

    def test_shape_must_match_the_form(self):
        form = remaining_context(is_gram_pair(EXCHANGE, I2)).form
        with pytest.raises(ValueError, match="dimension mismatch"):
            RemainingContext(BinaryMatrix.identity(3), form)

    def test_untouched_block_agrees(self, same_entries_example):
        p = pair10(same_entries_example)
        alpha, beta = touched(p)
        rest_r = [i for i in range(10) if i not in alpha]
        rest_c = [j for j in range(10) if j not in beta]
        a, b = p.A.int64(), p.B.int64()
        assert (a[np.ix_(rest_r, rest_c)] == b[np.ix_(rest_r, rest_c)]).all()

    def test_rank2_rejected(self):
        a = BinaryMatrix(np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int8))
        b = BinaryMatrix(np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int8))
        p = is_gram_pair(a, b)
        assert p is not None and p.diff_rank == 2
        with pytest.raises(ValueError):
            remaining_context(p)
        # a diff_rank field that claims rank 1 does not let it through
        with pytest.raises(ValueError):
            remaining_context(GramPair(a, b, 1))

    @pytest.mark.parametrize("diff_rank", [0, 5, 99])
    def test_decided_from_the_difference(self, diff_rank):
        ctx = remaining_context(GramPair(I2, EXCHANGE, diff_rank))
        assert (ctx.form.k1, ctx.form.k2) == (1, 1)


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

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            are_isomorphic(I2, BinaryMatrix.ones(2, 3))

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


def _full_svd_distinct(a) -> bool:
    """The predicate read off a full SVD, U and V computed and dropped."""
    sigma = np.linalg.svd(a.astype(np.float64), full_matrices=True)[1]
    return bool((sigma[:-1] - sigma[1:] > _REL_TOL * np.maximum(1.0, sigma[:-1])).all())


class TestDistinctSingularValues:
    def test_identity_not_distinct(self):
        assert not distinct_singular_values(np.eye(2, dtype=np.int64))

    def test_distinct(self):
        assert distinct_singular_values(np.array([[1, 1], [0, 1]]))

    def test_values_only_svd_decides_as_the_full_one(self):
        shapes = [(m, n) for m in range(2, 5) for n in range(2, 5)] + [(2, 5), (5, 2)]
        mats = [np.array(bits).reshape(m, n)
                for m, n in shapes for bits in itertools.product((0, 1), repeat=m * n)]
        rng = np.random.default_rng(22)
        mats += [rng.integers(0, 2, (n, n)) for n in rng.integers(4, 11, 4000)]
        got = [distinct_singular_values(a) for a in mats]
        assert got == [_full_svd_distinct(a) for a in mats]
        assert 0 < sum(got) < len(mats)  # both answers occur


class TestIsoDistinctSv:
    def test_precondition(self):
        with pytest.raises(ValueError):
            iso_distinct_sv(is_gram_pair(EXCHANGE, I2))

    def test_non_square_pair_rejected(self):
        pair = oracle.enumerate_gram_pairs(2, 3)[0]
        with pytest.raises(ValueError, match="A must be square"):
            iso_distinct_sv(pair)

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
            if p is None or p.diff_rank != 1 or not distinct_singular_values(a):
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

    @pytest.mark.parametrize("size", [1, 3])
    def test_matrix_of_another_shape_rejected(self, size):
        # a 3x3 matrix used to be judged separated, and a 1x1 one to raise IndexError
        ctx = remaining_context(is_gram_pair(I2, EXCHANGE))
        with pytest.raises(ValueError, match="dimension mismatch"):
            sum_separation(BinaryMatrix.identity(size), ctx)


def test_6x6_pair_non_isomorphic_not_fixable_not_separated(rank1_6x6_example):
    """Neither isomorphic nor fixable; not sum-separated, so the paper's statement does not cover it."""
    A, B = rank1_6x6_example
    assert B.int64().tolist() == (A.int64() + canonical_rank1_E(2, 2, 2, 2).int64()).tolist()
    p = is_gram_pair(A, B)
    assert p is not None and p.diff_rank == 1
    ctx = remaining_context(p)
    assert (ctx.form.k1, ctx.form.k2) == (2, 2)
    assert are_isomorphic(A, B) == NON_ISOMORPHIC
    assert is_fixable(ctx) is False
    assert sum_separation(A, ctx) is False and sum_separation(B, ctx) is False


def _keeping(k, fixed):
    """Every permutation of range(k), as an array row, that maps the set fixed onto itself."""
    return np.array([p for p in itertools.permutations(range(k))
                     if {p[i] for i in fixed} == set(fixed)])


def _brute_force(a, b, row_fixed=(), col_fixed=()):
    """Is b = a[p][:, q] for some row and column permutations that keep the given sets?"""
    rows, cols = _keeping(a.shape[0], row_fixed), _keeping(a.shape[1], col_fixed)
    return bool((a[rows[:, None, :, None], cols[None, :, None, :]] == b).all(axis=(2, 3)).any())


def _separated(a, b):
    """sum_separation from numpy alone: the touched rows split by the sign of
    a - b in one touched column, and the touched columns likewise."""
    d = a - b
    i0, j0 = np.argwhere(d)[0]
    for sums, signs in ((a.sum(axis=1), d[:, j0]), (a.sum(axis=0), d[i0, :])):
        rest = set(sums[signs == 0].tolist())
        if rest & set(sums[signs > 0].tolist()) or rest & set(sums[signs < 0].tolist()):
            return False
    return True


class TestBruteForce:
    """The search against every (P, Q), on every small input of a kind."""

    def test_gram_pairs(self):
        seen, separated = 0, 0
        for m, n in ((3, 3), (3, 4), (4, 3)):
            for p in oracle.enumerate_gram_pairs(m, n):
                a, b = p.A.int64(), p.B.int64()
                isomorphic = _brute_force(a, b)
                assert isinstance(are_isomorphic(p.A, p.B), IsoWitness) == isomorphic
                if p.diff_rank == 1:
                    ctx = remaining_context(p)
                    fixable = is_fixable(ctx)
                    assert fixable is _brute_force(a, b, *touched(p))
                    truth = _separated(a, b)
                    assert sum_separation(p.A, ctx) is truth and sum_separation(p.B, ctx) is truth
                    if truth:  # the paper: under sum separation, isomorphic iff fixable
                        assert isomorphic == fixable
                        separated += 1
                    seen += 1
        assert seen > 1000 and 0 < separated < seen

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
            ctx = RemainingContext(BinaryMatrix(a.astype(np.int8)), Rank1Form(
                k1, k2, Permutation.identity(2 * k1 + m3), Permutation.identity(2 * k2 + n3)))
            truth = _brute_force(a, b, range(2 * k1), range(2 * k2))
            assert is_fixable(ctx) is truth
            verdicts.add(truth)
        assert verdicts == {True, False}


def _exact(w, a, b):
    return bool((w.P.matrix().int64() @ a @ w.Q.matrix().int64() == b).all())


def _vf2(a, b):
    """networkx VF2 on the bipartite graphs of a and b, rows and columns coloured apart."""
    def graph(x):
        g = nx.Graph()
        g.add_nodes_from((("r", i) for i in range(x.shape[0])), side=0)
        g.add_nodes_from((("c", j) for j in range(x.shape[1])), side=1)
        g.add_edges_from((("r", int(i)), ("c", int(j))) for i, j in zip(*np.nonzero(x)))
        return g

    matcher = nx.algorithms.isomorphism.GraphMatcher(
        graph(a), graph(b), node_match=lambda u, v: u["side"] == v["side"])
    return matcher.is_isomorphic()


class TestRefinement:
    """Colour refinement at the first dead end decides pairs the Gram rows cannot split."""

    def test_kron_swap_49x49_witness_within_cap(self, rank1_example):
        A, B, _ = rank1_example
        p = kron_swap(is_gram_pair(A, B))
        w = are_isomorphic(p.A, p.B, node_cap=1000)
        assert isinstance(w, IsoWitness) and _exact(w, p.A.int64(), p.B.int64())

    def test_kron_pair_49x49_refuted_within_cap(self, rank1_example):
        A, B, _ = rank1_example
        pair = is_gram_pair(A, B)
        p = kron_pair(pair, pair)
        assert are_isomorphic(p.A, p.B, node_cap=1000) == NON_ISOMORPHIC
        assert not _vf2(p.A.int64(), p.B.int64())

    def test_both_passes_count_against_the_cap(self, rank1_example):
        # the first pass places all 49 rows before no column map closes it;
        # the refined pass needs 49 more, so 60 nodes cannot suffice
        A, B, _ = rank1_example
        p = kron_swap(is_gram_pair(A, B))
        assert are_isomorphic(p.A, p.B, node_cap=60) == UNDECIDED

    @pytest.mark.parametrize("case, nodes, expected", [
        ("kron_swap", 98, IsoWitness),
        ("kron_pair", 49, NON_ISOMORPHIC),
        ("7x7", 7, NON_ISOMORPHIC),
        ("7x7 fixable", 7, False),
        ("10x10 fixable", 10, True),
    ])
    def test_least_deciding_node_cap(self, case, nodes, expected, rank1_example, same_entries_example):
        """Each case decides at exactly `nodes` nodes, both passes counted,
        and is UNDECIDED at one fewer."""
        p7 = pair7(rank1_example)
        if case.endswith("fixable"):
            ctx = remaining_context(p7 if case == "7x7 fixable" else pair10(same_entries_example))
            search = functools.partial(is_fixable, ctx)
        else:
            p = {"kron_swap": kron_swap(p7), "kron_pair": kron_pair(p7, p7), "7x7": p7}[case]
            search = functools.partial(are_isomorphic, p.A, p.B)
        verdict = search(node_cap=nodes)
        if expected is IsoWitness:
            assert isinstance(verdict, IsoWitness) and _exact(verdict, p.A.int64(), p.B.int64())
        else:
            assert verdict == expected and type(verdict) is type(expected)
        assert search(node_cap=nodes - 1) == UNDECIDED


def _tuple_fingerprints(g, row_colour):
    """The per-row rule the numpy fingerprints replace: a Python sort of
    each Gram row, from the Gram matrix as lists of ints."""
    g = g.tolist()
    return [(row_colour[i], g[i][i], tuple(sorted(g[i]))) for i in range(len(g))]


class TestFingerprints:
    """iso._fingerprints gives what the per-row tuple sort gave."""

    @staticmethod
    def _kron_pairs(rank1_example):
        A, B, _ = rank1_example
        p = is_gram_pair(A, B)
        return kron_pair(p, p), kron_swap(p)

    @staticmethod
    def _agree(a, row_colour):
        g = _gram(a).astype(np.int64)
        assert _fingerprints(g, row_colour) == _tuple_fingerprints(g, row_colour)

    def test_fixtures_and_kron_pairs(self, rank1_example, same_entries_example, rank1_6x6_example):
        mats = [*rank1_example[:2], same_entries_example[0], *rank1_6x6_example]
        for p in self._kron_pairs(rank1_example):
            mats += [p.A, p.B]
        for M in mats:
            self._agree(M.int64(), [0] * M.rows)

    def test_random_matrices_with_and_without_colours(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m, n = rng.integers(1, 12, 2)
            a = rng.integers(0, 2, (m, n))
            self._agree(a, [0] * m)
            self._agree(a, rng.integers(0, 3, m).tolist())

    def test_same_witnesses_as_tuple_fingerprints(self, rank1_example, monkeypatch):
        rng = np.random.default_rng(49)
        cases = []
        for p in self._kron_pairs(rank1_example):
            P, Q = (Permutation(tuple(rng.permutation(49).tolist())) for _ in range(2))
            cases += [(p.A, p.B), (p.A, apply_perms(p.A, P, Q)), (p.B, apply_perms(p.B, P, Q))]

        def verdicts():
            out = []
            for A, B in cases:
                v = are_isomorphic(A, B, node_cap=1000)
                out.append((v.P.image, v.Q.image) if isinstance(v, IsoWitness) else v)
            return out

        numpy_rule = verdicts()
        monkeypatch.setattr(iso, "_fingerprints", _tuple_fingerprints)
        assert verdicts() == numpy_rule
        assert numpy_rule[0] == NON_ISOMORPHIC and isinstance(numpy_rule[3], tuple)
        assert all(isinstance(v, tuple) for k, v in enumerate(numpy_rule) if k % 3)


@st.composite
def _binary(draw, low=1):
    """A (0,1) matrix up to 8x8.  Half the draws are regular (a union of
    cyclic shifts, relabelled): there the Gram fingerprints often agree and
    the search has to refine."""
    if draw(st.booleans()):
        m = draw(st.integers(4, 8))
        shifts = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=m - 2, unique=True))
        a = sum(np.roll(np.eye(m, dtype=np.int64), s, axis=1) for s in shifts)
        return a[draw(st.permutations(range(m)))][:, draw(st.permutations(range(m)))]
    m, n = draw(st.integers(low, 8)), draw(st.integers(low, 8))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n))
    return np.array(bits, dtype=np.int64).reshape(m, n)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_relabelled_copy_always_has_a_witness(data):
    a = data.draw(_binary())
    m, n = a.shape
    p, q = data.draw(st.permutations(range(m))), data.draw(st.permutations(range(n)))
    b = np.empty_like(a)
    b[np.ix_(p, q)] = a
    w = are_isomorphic(BinaryMatrix(a.astype(np.int8)), BinaryMatrix(b.astype(np.int8)))
    assert isinstance(w, IsoWitness) and _exact(w, a, b)


def test_switch_pairs_agree_with_vf2():
    """A 2x2 checkerboard swapped keeps every row and column sum; VF2 is the reference."""
    seen = set()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def check(data):
        a = data.draw(_binary(low=2))
        m, n = a.shape
        boards = [(i, j, k, l) for i, j in itertools.permutations(range(m), 2)
                  for k, l in itertools.permutations(range(n), 2)
                  if a[i, k] == a[j, l] == 1 and a[i, l] == a[j, k] == 0]
        assume(boards)
        i, j, k, l = data.draw(st.sampled_from(boards))
        b = a.copy()
        b[[i, i, j, j], [k, l, k, l]] = 1 - b[[i, i, j, j], [k, l, k, l]]
        w = are_isomorphic(BinaryMatrix(a.astype(np.int8)), BinaryMatrix(b.astype(np.int8)))
        truth = _vf2(a, b)
        assert isinstance(w, IsoWitness) == truth
        if truth:
            assert _exact(w, a, b)
        else:
            assert w == NON_ISOMORPHIC
        seen.add(truth)

    check()
    assert seen == {True, False}
