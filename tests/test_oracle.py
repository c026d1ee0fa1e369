import itertools
import tracemalloc

import numpy as np
import pytest

from grammate import oracle
from grammate.gram import is_gram_pair
from grammate.matrix_core import BinaryMatrix, SignedMatrix, _stack_ranks, rank_exact
from grammate.oracle import (
    OracleCapError,
    enumerate_gram_pairs,
    enumerate_mates_of,
    validate_theorems,
)
from grammate.rank_forms import classify_rank1


def _all_matrices(m, n):
    """Every m x n (0,1) matrix; matrix c has bit t of c at flat position t."""
    codes = np.arange(1 << (m * n))
    return ((codes[:, None] >> np.arange(m * n)) & 1).reshape(-1, m, n)


def _gram_groups(mats):
    """Lists of the indices of mats with equal (AA^T, A^T A), each ascending."""
    t = mats.transpose(0, 2, 1)
    key = np.concatenate([(mats @ t).reshape(len(mats), -1), (t @ mats).reshape(len(mats), -1)], axis=1)
    _, group = np.unique(key, axis=0, return_inverse=True)
    members = {}
    for i, g in enumerate(group.ravel().tolist()):
        members.setdefault(g, []).append(i)
    return list(members.values())


def _reference_pairs(m, n):
    """(code A, code B, difference rank) of every Gram pair, sorted."""
    mats = _all_matrices(m, n)
    return mats, sorted(
        (i, j, int(np.linalg.matrix_rank(mats[i] - mats[j])))
        for codes in _gram_groups(mats)
        for i, j in itertools.combinations(codes, 2)
    )


def _code(M):
    return int(M.int64().ravel() @ (1 << np.arange(M.data.size)))


def _reference_nodes(a):
    """Candidate rows tried by a plain row-by-row backtracking with the Gram
    search's prunings: row products equal to AA^T, and a column residual
    R = A^TA - B^TB, over the rows placed, with R >= 0 and
    R_jj + R_kk - R_jk at most the rows left, for all j, k."""
    a = a.tolist()
    m, n = len(a), len(a[0])
    rows = list(itertools.product((0, 1), repeat=n))
    count = 0

    def dot(x, y):
        return sum(p * q for p, q in zip(x, y))

    cols = list(zip(*a))
    gram_col = [[dot(x, y) for y in cols] for x in cols]

    def rec(b, res):
        nonlocal count
        i = len(b)
        if i == m:
            return
        for r in rows:
            if sum(r) != sum(a[i]):
                continue
            count += 1
            nxt = [[res[j][k] - r[j] * r[k] for k in range(n)] for j in range(n)]
            if any(nxt[j][k] < 0 or nxt[j][j] + nxt[k][k] - nxt[j][k] > m - i - 1
                   for j in range(n) for k in range(n)):
                continue
            if all(dot(r, b[j]) == dot(a[i], a[j]) for j in range(i)):
                rec(b + [r], nxt)

    rec([], gram_col)
    return count


SMALL_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 12 // m + 1)]


class TestEnumerateGramPairs:
    def test_no_1x1_mates(self):
        assert enumerate_gram_pairs(1, 1) == []

    def test_2x2_matches_pairwise_check(self):
        pairs = enumerate_gram_pairs(2, 2)
        mats = [np.array(b, dtype=np.int8).reshape(2, 2) for b in itertools.product((0, 1), repeat=4)]
        direct = sum(
            1
            for i in range(16)
            for j in range(i + 1, 16)
            if is_gram_pair(BinaryMatrix(mats[i]), BinaryMatrix(mats[j])) is not None
        )
        assert len(pairs) == direct == 1
        p = pairs[0]
        assert {tuple(p.A.data.flatten()), tuple(p.B.data.flatten())} == {
            (0, 1, 1, 0),
            (1, 0, 0, 1),
        }

    def test_3x3_rank1_pairs_classify(self):
        pairs = [p for p in enumerate_gram_pairs(3, 3) if p.diff_rank == 1]
        assert pairs
        for p in pairs:
            assert classify_rank1(p.diff()) is not None

    def test_sum_filters(self):
        for p in enumerate_gram_pairs(2, 3, row_sums_filter=(1, 1)):
            assert tuple(p.A.int64().sum(axis=1)) == (1, 1)

    def test_cap(self):
        # 2^(mn) Gram keys are kept: 25 cells would need about 11 GB of them
        for m, n in [(5, 6), (5, 5), (25, 1)]:
            with pytest.raises(OracleCapError):
                enumerate_gram_pairs(m, n)

    @pytest.mark.parametrize("m,n", SMALL_SHAPES)
    def test_matches_numpy_reference(self, m, n):
        mats, ref = _reference_pairs(m, n)
        # sum filters taken from a pair of the shape, or from the last matrix
        i, j, _ = ref[len(ref) // 2] if ref else (len(mats) - 1,) * 3
        rows, cols = tuple(mats[i].sum(axis=1).tolist()), tuple(mats[j].sum(axis=0).tolist())
        cases = [
            ({}, lambda a: True),
            ({"row_sums_filter": rows}, lambda a: tuple(a.sum(axis=1)) == rows),
            ({"col_sums_filter": cols}, lambda a: tuple(a.sum(axis=0)) == cols),
            ({"row_sums_filter": rows, "col_sums_filter": cols},
             lambda a: tuple(a.sum(axis=1)) == rows and tuple(a.sum(axis=0)) == cols),
        ]
        for kwargs, keep in cases:
            got = [(_code(p.A), _code(p.B), p.diff_rank) for p in enumerate_gram_pairs(m, n, **kwargs)]
            assert got == [t for t in ref if keep(mats[t[0]])], kwargs

    def test_wrong_length_filter_matches_nothing(self):
        # a mask must not broadcast a short filter over the rows
        assert enumerate_gram_pairs(2, 3, row_sums_filter=(1, 1, 1)) == []
        assert enumerate_gram_pairs(2, 2, row_sums_filter=(1,)) == []
        assert enumerate_gram_pairs(2, 2, col_sums_filter=(1, 1, 1)) == []
        assert len(enumerate_gram_pairs(2, 2, row_sums_filter=(1, 1))) == 1


class TestGramPairScan:
    # above SMALL_SHAPES' 12 cells; 1xk is left out, as its reference keys
    # hold a k x k Gram per code
    @pytest.mark.parametrize("m,n", [(4, 4), (3, 5), (5, 3), (2, 7), (7, 2), (2, 8), (8, 2)])
    def test_matches_numpy_reference_above_12_cells(self, m, n):
        mats = _all_matrices(m, n)
        ref = sorted(pair for codes in _gram_groups(mats) for pair in itertools.combinations(codes, 2))
        stack = oracle._gram_pair_arrays(m, n)
        assert stack.dtype == np.int8 and len(stack) == len(ref) > 0
        assert stack.tolist() == mats[np.array(ref)].tolist()

    def test_sum_filters_across_blocks(self):
        # 4x5 decodes its 2^20 codes in 16 blocks; the unfiltered scan peaks
        # at about 85 MiB
        tracemalloc.start()
        try:
            stack = oracle._gram_pair_arrays(4, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 << 20
        rows, cols = stack[:, 0].sum(axis=2), stack[:, 0].sum(axis=1)
        a, b = stack[len(stack) // 2, 0], stack[len(stack) // 3, 0]
        for rfilt, cfilt in [(a.sum(axis=1), a.sum(axis=0)), (None, b.sum(axis=0))]:
            keep = (cols == cfilt).all(axis=1)
            if rfilt is not None:
                keep &= (rows == rfilt).all(axis=1)
            codes = stack[keep, 0].reshape(-1, 20) @ (1 << np.arange(20))
            assert len(set((codes // oracle._BLOCK).tolist())) > 1
            got = oracle._gram_pair_arrays(4, 5, rfilt, cfilt)
            assert got.dtype == np.int8 and got.tobytes() == stack[keep].tobytes()

    @pytest.mark.parametrize("rfilt,cfilt", [((2, 2, 2, 2, 2), None), (None, (2, 2, 2, 2)),
                                             ((2, 2, 2, 2), (2, 2, 2, 2, 2, 0))])
    def test_wrong_length_filter_is_an_empty_stack(self, rfilt, cfilt):
        got = oracle._gram_pair_arrays(4, 5, rfilt, cfilt)
        assert got.dtype == np.int8 and got.shape == (0, 2, 4, 5)


class TestStackedDifferenceRanks:
    # every shape under the cell cap; 5x4's pairs are 4x5's transposed
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 6)
                                     if m * n <= 20 and (m, n) != (5, 4)])
    def test_equal_rank_exact_on_every_pair_difference(self, m, n):
        # the whole stack is ranked at once; rank_exact runs once per
        # distinct difference (2,625 of 4x5's 187,470 pairs)
        stack = oracle._gram_pair_arrays(m, n)
        diffs = stack[:, 0] - stack[:, 1]
        distinct, which = np.unique(diffs, axis=0, return_inverse=True)
        exact = np.array([rank_exact(SignedMatrix(d)) for d in distinct])
        assert _stack_ranks(diffs).tolist() == exact[which.reshape(-1)].tolist()

    def test_the_scan_is_the_pairs_in_order(self):
        stack = oracle._gram_pair_arrays(3, 3)
        pairs = enumerate_gram_pairs(3, 3)
        assert stack.dtype == np.int8 and stack.shape == (len(pairs), 2, 3, 3)
        assert stack.tolist() == [[p.A.data.tolist(), p.B.data.tolist()] for p in pairs]


class TestEnumerateMatesOf:
    def test_identity_4(self):
        mates = enumerate_mates_of(BinaryMatrix(np.eye(4, dtype=np.int8)))
        assert len(mates) == 23
        for b in mates:
            m = b.int64()
            assert (m @ m.T == np.eye(4)).all()  # all are permutation matrices

    def test_all_ones_has_none(self):
        assert enumerate_mates_of(BinaryMatrix(np.ones((3, 3), dtype=np.int8))) == []

    def test_finds_the_paper_mate(self, rank1_example):
        A, B, _ = rank1_example
        mates = enumerate_mates_of(A)
        assert any(m == B for m in mates)

    def test_cap(self):
        with pytest.raises(OracleCapError):
            enumerate_mates_of(BinaryMatrix(np.eye(4, dtype=np.int8)), node_cap=2)

    def test_node_count_of_the_paper_example(self, rank1_example):
        # 1,477 candidate rows are tried (48,510 under the column-sum bounds
        # alone); the cap is met exactly there
        A, B, _ = rank1_example
        assert enumerate_mates_of(A, node_cap=1477) == [B]
        with pytest.raises(OracleCapError):
            enumerate_mates_of(A, node_cap=1476)

    def test_same_entries_example_decides(self, same_entries_example):
        # 35,008 nodes; the column-sum bounds alone passed the 10^7 cap
        A, E = same_entries_example
        mates = enumerate_mates_of(A, node_cap=35008)
        assert len(mates) == 7
        assert BinaryMatrix((A.int64() + E.int64()).astype(np.int8)) in mates
        for B in mates:
            assert is_gram_pair(A, B) is not None
        with pytest.raises(OracleCapError):
            enumerate_mates_of(A, node_cap=35007)

    @pytest.mark.parametrize("a", [[[-1]], [[1, 0], [0, -1]]])
    def test_signed_matrix_is_refused(self, a):
        # Gram mates are (0,1) matrices, so a signed one has none to search for
        with pytest.raises(ValueError, match="expected a BinaryMatrix, not SignedMatrix"):
            enumerate_mates_of(SignedMatrix(a))

    @pytest.mark.parametrize("m,n,sample", [
        (2, 2, None), (2, 3, None), (3, 2, None), (3, 3, None), (2, 4, None), (4, 2, None),
        (3, 4, 60), (4, 3, 60),
    ])
    def test_mates_are_the_gram_group(self, m, n, sample):
        mats = _all_matrices(m, n)
        groups = _gram_groups(mats)
        codes = range(len(mats))
        if sample is not None:
            codes = np.random.default_rng(m * 10 + n).choice(len(mats), sample, replace=False).tolist()
        group_of = {c: g for g in groups for c in g}
        for c in codes:
            want = sorted(tuple(mats[d].ravel().tolist()) for d in group_of[c] if d != c)
            got = [tuple(M.int64().ravel().tolist()) for M in enumerate_mates_of(BinaryMatrix(mats[c]))]
            assert got == want, mats[c]


    def test_cap_is_the_reference_node_count(self):
        mats = [*_all_matrices(3, 3)]
        mats += list(_all_matrices(4, 4)[np.random.default_rng(44).choice(1 << 16, 40, replace=False)])
        for a in mats:
            nodes = _reference_nodes(a)
            A = BinaryMatrix(a)
            enumerate_mates_of(A, node_cap=nodes)
            with pytest.raises(OracleCapError):
                enumerate_mates_of(A, node_cap=nodes - 1)

    def test_one_partial_matrix_per_chunk(self, monkeypatch):
        # a chunk bound below one level's candidates expands every partial
        # matrix on its own, so every frontier with two or more spans chunks
        monkeypatch.setattr(oracle, "_CHUNK", 1)
        self.test_mates_are_the_gram_group(3, 3, None)
        self.test_mates_are_the_gram_group(4, 4, 40)

    def test_wide_frontier_stays_small(self):
        # the mates of I7 are the other 5,039 permutation matrices; the last
        # level tries 7 rows on each of 5,040 partial matrices, several chunks
        assert 5040 * 7 * 7 > 2 * oracle._CHUNK
        perms = sorted(tuple(np.eye(7, dtype=int)[list(p)].ravel().tolist())
                       for p in itertools.permutations(range(7)) if p != tuple(range(7)))
        tracemalloc.start()
        try:
            mates = enumerate_mates_of(BinaryMatrix.identity(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [tuple(M.int64().ravel().tolist()) for M in mates] == perms
        assert peak < 32 << 20

    def test_wide_rows_stay_small(self):
        # its rows hold 5 to 11 ones of 16, thousands of candidates each, so
        # every chunk holds one partial matrix and the cap ends the search
        a = np.random.default_rng(0).integers(0, 2, size=(8, 16)).astype(np.int8)
        tracemalloc.start()
        try:
            with pytest.raises(OracleCapError):
                enumerate_mates_of(BinaryMatrix(a), node_cap=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


class TestValidateTheorems:
    def test_identity_mates_scope(self):
        rep = validate_theorems("identity-mates")
        assert rep.tags["identity_mates"] == 23
        assert rep.tags["identity_convertible"] == 9

    def test_rank_classification_scope(self):
        rep = validate_theorems("rank-classification")
        assert rep.total_pairs > 0
        assert rep.tags["classified"] == rep.total_pairs
        assert set(rep.by_diff_rank) <= {1, 2}

    @pytest.mark.parametrize("scope, tags", [
        ("convertibility", {"convertible": 736}),
        ("all", {"classified": 844, "convertible": 736,
                 "identity_mates": 23, "identity_convertible": 9}),
    ])
    def test_corpus_scope_counts(self, scope, tags):
        rep = validate_theorems(scope)
        assert (rep.total_pairs, rep.by_diff_rank) == (844, {1: 736, 2: 108})
        assert rep.tags == tags

    @pytest.mark.parametrize("scope", ["convertibilty", "", "ALL"])
    def test_unknown_scope_is_rejected(self, scope):
        # a misspelt scope used to return 0 pairs and no violations
        with pytest.raises(ValueError, match="unknown scope"):
            validate_theorems(scope)
