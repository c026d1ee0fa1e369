import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grammate.matrix_core import (
    BinaryMatrix,
    MatrixFormatError,
    Permutation,
    SignedMatrix,
    _INT64_STEPS,
    _gram,
    _gram_dtype,
    _mtxt_texts,
    _parse_entries,
    _pivots,
    _stack_ranks,
    apply_perms,
    col_sums,
    parse_matrix,
    rank_exact,
    row_sums,
    serialize_matrix,
)


def signed_arrays(max_dim=5, lo=-1):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, 1), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


class TestMatrices:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            BinaryMatrix(np.array([[0, 2]]))
        with pytest.raises(ValueError):
            SignedMatrix(np.array([[-2, 0]]))
        # entries are checked as given, not after an int8 cast that wraps
        for bad in ([[256]], [[-255]], [[0.5]]):
            with pytest.raises(ValueError, match="entry out of range"):
                BinaryMatrix(np.array(bad))
        with pytest.raises(ValueError, match="entry out of range"):
            SignedMatrix(np.array([[255]]))
        BinaryMatrix(np.array([[0, 1]]))
        SignedMatrix(np.array([[-1, 0, 1]]))
        assert BinaryMatrix(np.array([[True, False]])) == BinaryMatrix(np.array([[1, 0]]))
        assert SignedMatrix(np.array([[-1.0, 1.0]])) == SignedMatrix(np.array([[-1, 1]]))
        # every non-int8 dtype goes through the min/max check, never the bytes
        for cls, good, bad in ((BinaryMatrix, [[0, 1]], [[2]]), (SignedMatrix, [[-1, 0, 1]], [[-2]])):
            for dt in (np.int16, np.int64, np.float64):
                assert cls(np.array(good, dtype=dt)) == cls(np.array(good, dtype=np.int8))
                with pytest.raises(ValueError, match="entry out of range"):
                    cls(np.array(bad, dtype=dt))
            for bad_input in (np.array([[255]], dtype=np.uint8), np.array([[384]]),
                              np.array([[np.nan]]), np.array([[1 + 0j]]), np.array([["1"]])):
                with pytest.raises(ValueError, match="entry out of range"):
                    cls(bad_input)
        assert BinaryMatrix(np.array([[1]], dtype=np.uint8)).data.dtype == np.int8

    def test_every_int8_value(self):
        for v in range(-128, 128):
            x = np.array([[v]], dtype=np.int8)
            for cls, alphabet in ((BinaryMatrix, (0, 1)), (SignedMatrix, (-1, 0, 1))):
                if v in alphabet:
                    assert cls(x).data[0, 0] == v
                else:
                    with pytest.raises(ValueError, match="entry out of range"):
                        cls(x)

    def test_int8_views_are_checked_as_viewed_and_copied(self):
        src = np.array([[0, 7, 1, 7], [1, -1, 1, -1], [0, 5, 0, 5]], dtype=np.int8)
        for view, ok in ((src[:, ::2], True), (src[:, 1::2], False), (src[:2, ::2].T, True),
                         (src[1:2].T, False)):
            if not ok:
                with pytest.raises(ValueError, match="entry out of range"):
                    BinaryMatrix(view)
                continue
            m = BinaryMatrix(view)
            assert (m.data == view).all() and m.data.flags.c_contiguous
            assert not np.shares_memory(m.data, src)
        s = SignedMatrix(src[1:2].T)
        assert s.data[:, 0].tolist() == [1, -1, 1, -1] and not np.shares_memory(s.data, src)

    def test_immutability(self):
        m = BinaryMatrix.identity(2)
        with pytest.raises(ValueError):
            m.data[0, 0] = 0
        # int64() hands out a private copy
        w = m.int64()
        w[0, 0] = 5
        assert m.data[0, 0] == 1
        # the constructor copies: later writes to the caller's array are not seen
        src = np.zeros((2, 4), dtype=np.int8)
        v = BinaryMatrix(src[:1])
        src[0, 0] = 5
        assert v.data[0, 0] == 0 and src.flags.writeable

    def test_equality_and_hash(self):
        a = BinaryMatrix(np.array([[1, 0], [0, 1]]))
        b = BinaryMatrix.identity(2)
        assert a == b and hash(a) == hash(b)
        assert a != SignedMatrix(np.array([[1, 0], [0, 1]]))

    def test_sums(self):
        m = BinaryMatrix(np.array([[1, 1, 0], [0, 1, 0]]))
        assert row_sums(m) == (2, 1)
        assert col_sums(m) == (1, 2, 0)
        s = SignedMatrix(np.array([[-1, -1, 0], [1, -1, -1]]))
        assert row_sums(s) == (-2, -1)
        assert col_sums(s) == (0, -2, -1)
        # sums past the int8 range
        wide = BinaryMatrix.ones(2, 300)
        assert row_sums(wide) == (300, 300) and row_sums(wide.transpose()) == (2,) * 300
        assert col_sums(wide.transpose()) == (300, 300)
        for sums in (row_sums(m), col_sums(m), row_sums(s), col_sums(s), row_sums(wide)):
            assert type(sums) is tuple and all(type(x) is int for x in sums)

    def test_transpose(self):
        m = BinaryMatrix(np.array([[1, 1, 0], [0, 1, 0]]))
        assert m.transpose().shape == (3, 2)
        assert m.transpose().transpose() == m


class TestRankExact:
    def test_zero(self):
        assert rank_exact(SignedMatrix.zeros(3, 4)) == 0

    def test_identity(self):
        assert rank_exact(BinaryMatrix.identity(4)) == 4

    def test_rank_one_block(self):
        e = SignedMatrix(np.array([[1, -1], [-1, 1]]))
        assert rank_exact(e) == 1

    @settings(max_examples=60, deadline=None)
    @given(signed_arrays())
    def test_matches_numpy(self, rows):
        a = np.array(rows)
        assert rank_exact(SignedMatrix(a)) == np.linalg.matrix_rank(a.astype(float))
        _assert_pivots(a, _greedy_rows(a))

    @pytest.mark.parametrize("k", [4, 5])
    def test_sylvester_hadamard(self, k):
        # H16 and H32 have the largest minors of their size and run past the
        # int64 steps onto Python ints
        h = np.array([[1]])
        for _ in range(k):
            h = np.block([[h, h], [h, -h]])
        assert rank_exact(SignedMatrix(h)) == 2**k
        assert _greedy_rows(h) == list(range(2**k))
        _assert_pivots(h, list(range(2**k)))

    @pytest.mark.parametrize("shape", [(40, 40), (40, 31), (23, 40), (16, 16), (2, 40), (40, 3)])
    def test_random_signs(self, shape):
        a = np.random.default_rng(sum(shape)).choice([-1, 1], shape)
        rows = _greedy_rows(a)
        assert rank_exact(SignedMatrix(a)) == len(rows)
        _assert_pivots(a, rows)

    @pytest.mark.parametrize("r", [14, 15, 16, 17])
    def test_low_rank_products(self, r):
        # each row is a row of the (0,1) factor y, or the difference of two,
        # so the product is already in {-1,0,1} and has rank at most r
        # (clipping a dense product instead would make it full rank)
        rng = np.random.default_rng(r)
        i, j = rng.integers(0, r, (2, 40))
        x = np.eye(r, dtype=int)[i] - np.eye(r, dtype=int)[j] * (rng.random((40, 1)) < 0.6)
        a = x @ rng.integers(0, 2, (r, 30))
        rows = _greedy_rows(a)
        assert r - 1 <= len(rows) <= r
        assert rank_exact(SignedMatrix(a)) == len(rows)
        _assert_pivots(a, rows)

    @pytest.mark.parametrize(
        "a",
        [np.zeros((4, 6), int), np.zeros((1, 5), int), np.zeros((5, 1), int),
         np.array([[0, 1, -1, 0]]), np.array([[0], [0], [-1], [1]]), np.array([[1]])],
    )
    def test_degenerate_shapes(self, a):
        rows = _greedy_rows(a)
        assert rank_exact(SignedMatrix(a)) == len(rows)
        _assert_pivots(a, rows)

    def test_needs_a_matrix_type(self):
        for bad in (np.eye(3, dtype=int), [[1, 0], [0, 1]]):
            with pytest.raises(TypeError):
                rank_exact(bad)


def _gram_reference(a: np.ndarray) -> np.ndarray:
    a = a.astype(np.int64)
    return a @ a.T


class TestGram:
    """_gram's float BLAS products equal int64 products exactly."""

    @pytest.mark.parametrize("shape", [(1, 300), (300, 1), (4, 4), (49, 49), (300, 300)])
    def test_equals_int64_on_random_matrices(self, shape):
        rng = np.random.default_rng(sum(shape))
        for p in (0.1, 0.5, 1.0):
            a = (rng.random(shape) < p).astype(np.int8)
            # near-misses: a with one entry flipped
            b = a.copy()
            b[rng.integers(shape[0]), rng.integers(shape[1])] ^= 1
            for x in (a, b, a.T, b.T):
                g = _gram(x)
                assert g.dtype == np.float32
                assert (g == _gram_reference(x)).all()
            for x, y in ((a, b), (a.T, b.T)):
                same = bool((_gram_reference(x) == _gram_reference(y)).all())
                assert (_gram(x).tobytes() == _gram(y).tobytes()) == same

    def test_inner_dimension_past_2_to_the_16(self):
        # the column Gram of a 2 x 70,000 matrix would have 4.9e9 entries, so
        # only the row Gram is taken: its entries and partial sums pass 2^16
        rng = np.random.default_rng(70_000)
        for a in (np.ones((2, 70_000), dtype=np.int8),
                  rng.integers(0, 2, (2, 70_000)).astype(np.int8)):
            b = a.copy()
            b[1, -1] ^= 1
            for x in (a, b):
                assert (_gram(x) == _gram_reference(x)).all()
            assert _gram(a).tobytes() != _gram(b).tobytes()

    def test_dtype_rule_depends_on_the_inner_dimension_alone(self):
        # no array of these sizes is made: the rule is a function of k
        assert _gram_dtype(1) is np.float32
        assert _gram_dtype(2**24) is np.float32
        assert _gram_dtype(2**24 + 1) is np.float64
        assert _gram_dtype(2**53) is np.float64
        # why the bound sits there: float32 holds every integer up to 2^24,
        # but 2^24 + 1 rounds back to 2^24
        assert np.float32(2**24 - 1) + np.float32(1) == 2**24
        assert np.float32(2**24) + np.float32(1) == np.float32(2**24)


def _low_rank(rng, m, n, r):
    """An m x n {-1,0,1} matrix of rank at most r: each row is a row of a
    (0,1) factor, or the difference of two."""
    i, j = rng.integers(0, r, (2, m))
    x = np.eye(r, dtype=int)[i] - np.eye(r, dtype=int)[j] * (rng.random((m, 1)) < 0.5)
    return x @ rng.integers(0, 2, (r, n))


class TestStackRanks:
    @pytest.mark.parametrize("shape", [(15, 15), (15, 6), (4, 15), (1, 1), (1, 9), (9, 1), (11, 13)])
    def test_equals_rank_exact_on_random_stacks(self, shape):
        rng = np.random.default_rng(sum(shape))
        m, n = shape
        dense = rng.integers(-1, 2, (8, m, n))
        sparse = rng.choice([-1, 0, 1], (8, m, n), p=[0.1, 0.8, 0.1])
        low = [_low_rank(rng, m, n, int(r)) for r in rng.integers(1, min(m, n) + 1, 8)]
        stack = np.concatenate([dense, sparse, low, np.zeros((3, m, n), int)])
        stack = stack[rng.permutation(len(stack))].astype(np.int8)
        assert _stack_ranks(stack).tolist() == [rank_exact(SignedMatrix(a)) for a in stack]

    def test_hadamard_rows_reach_the_int64_bound(self):
        # H16's first 15 rows: 15 pivots, the most the int64 steps allow
        h = np.array([[1]])
        for _ in range(4):
            h = np.block([[h, h], [h, -h]])
        square = np.array([h[:15, :15], -h[:15, :15], h[14::-1, :15]], dtype=np.int8)
        assert _stack_ranks(square).tolist() == [15, 15, 15]
        assert _stack_ranks(h[None, :15].astype(np.int8)).tolist() == [15]

    def test_empty_stack(self):
        assert _stack_ranks(np.zeros((0, 3, 4), dtype=np.int8)).tolist() == []

    @pytest.mark.parametrize("shape", [(16, 16), (40, 16)])
    def test_past_the_int64_bound_is_refused(self, shape):
        assert min(shape) == _INT64_STEPS + 1
        with pytest.raises(ValueError):
            _stack_ranks(np.zeros((1, *shape), dtype=np.int8))


def _greedy_rows(a: np.ndarray) -> list[int]:
    """Indices of the rows of a independent of the rows before them, by
    Gaussian elimination over Fractions."""
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot column, row with 1 there)
    rows = []
    for i, row in enumerate(a.tolist()):
        v = [Fraction(x) for x in row]
        for p, b in basis:
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, b)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is not None:
            basis.append((p, [x / v[p] for x in v]))
            rows.append(i)
    return rows


def _assert_pivots(a: np.ndarray, rows: list[int]) -> None:
    """_pivots(a) gives the rows expected and as many distinct columns, on
    which those rows form a nonsingular block, so the columns are a basis
    of the column space."""
    prows, pcols = _pivots(a)
    assert prows == rows
    assert len(set(pcols)) == len(pcols) == len(rows)
    assert _greedy_rows(a[np.ix_(rows, pcols)]) == list(range(len(rows)))


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((0, 0))

    def test_inverse_compose(self):
        p = Permutation((2, 0, 1))
        assert p.compose(p.inverse()) == Permutation.identity(3)

    def test_matrix_convention(self):
        # P e_i = e_image[i]: row i of M lands at row image[i]
        p = Permutation((1, 2, 0))
        m = BinaryMatrix(np.array([[1, 1, 1], [0, 0, 0], [0, 1, 0]]))
        moved = apply_perms(m, p, Permutation.identity(3))
        assert (moved.data[1] == m.data[0]).all()
        # matches multiplication by the permutation matrix
        assert (p.matrix().int64() @ m.int64() == moved.int64()).all()

    def test_involution(self):
        assert Permutation((1, 0, 2)).is_involution()
        assert not Permutation((1, 2, 0)).is_involution()

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(5))), st.permutations(list(range(4))))
    def test_apply_perms_roundtrip(self, pi, qi):
        p, q = Permutation(tuple(pi)), Permutation(tuple(qi))
        m = BinaryMatrix((np.arange(20).reshape(5, 4) % 2).astype(np.int8))
        back = apply_perms(apply_perms(m, p, q), p.inverse(), q.inverse())
        assert back == m


class TestMtxtFormat:
    def test_roundtrip_binary(self):
        m = BinaryMatrix(np.array([[1, 0], [0, 1]]))
        assert parse_matrix(serialize_matrix(m)) == m

    def test_roundtrip_signed(self):
        m = SignedMatrix(np.array([[1, -1], [-1, 1]]))
        assert parse_matrix(serialize_matrix(m)) == m

    def test_comments_and_blank_lines(self):
        text = "# difference matrix\n\n2 2\n1 -1\n\n-1 1\n"
        assert parse_matrix(text) == SignedMatrix(np.array([[1, -1], [-1, 1]]))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "2\n1 1\n1 1",
            "2 2\n1 1\n1",
            "2 2\n1 1\n1 2",
            "2 2\n1 1\n1 x",
            "1 1\n1\n1",
            "0 2\n",
            "1 1\n99999999999999999999\n",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(MatrixFormatError):
            parse_matrix(bad)

    @pytest.mark.parametrize("kind,alphabet", [(BinaryMatrix, (0, 1)), (SignedMatrix, (-1, 0, 1))])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
    def test_serialize_is_the_per_entry_text(self, kind, alphabet, shape):
        # byte for byte the text of the per-entry formula, on every matrix of the shape
        for entries in itertools.product(alphabet, repeat=shape[0] * shape[1]):
            m = kind(np.array(entries, dtype=np.int8).reshape(shape))
            lines = [f"{m.rows} {m.cols}"] + [" ".join(str(int(x)) for x in row) for row in m.data]
            text = serialize_matrix(m)
            assert text == "\n".join(lines) + "\n"
            back = parse_matrix(text)
            assert back.data.tolist() == m.data.tolist()
            assert isinstance(back, BinaryMatrix) == (min(entries) >= 0)

    @pytest.mark.parametrize("alphabet", [(0, 1), (-1, 0, 1)])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
    def test_writer_is_the_per_row_join(self, alphabet, shape):
        # one call on the stack of every matrix of the shape and alphabet
        stack = np.array(list(itertools.product(alphabet, repeat=shape[0] * shape[1])),
                         dtype=np.int8).reshape(-1, *shape)
        want = [f"{shape[0]} {shape[1]}\n" + "".join(" ".join(map(str, row)) + "\n" for row in a)
                for a in stack.tolist()]
        assert _mtxt_texts(stack) == want

    def test_writer_on_no_matrices(self):
        assert _mtxt_texts(np.zeros((0, 2, 3), dtype=np.int8)) == []

    def test_entries_are_what_int_accepts(self):
        text = "2 3\n+1 1_0 -0\n\u0661 9223372036854775807 -9223372036854775808\n"
        assert _parse_entries(text).tolist() == [[1, 10, 0], [1, 2**63 - 1, -2**63]]

    @pytest.mark.parametrize("text,message", [
        ("2 2\n1 99999999999999999999\n1 x\n", "non-integer entry in row: '1 x'"),
        ("2 2\n1 1.5\n1 x\n", "non-integer entry in row: '1 1.5'"),
        ("2 2\n1 0\n-99999999999999999999 1\n", "entry out of the int64 range"),
        ("2 2\n1 0\n1\n", "row length mismatch: '1'"),
        # every row length is checked before any entry is converted
        ("2 2\n1 x\n1\n", "row length mismatch: '1'"),
        ("2 2\n1 0\n", "expected 2 rows, found 1"),
    ])
    def test_malformed_messages(self, text, message):
        # every row is converted before the int64 range is checked
        with pytest.raises(MatrixFormatError) as err:
            _parse_entries(text)
        assert str(err.value) == message

    @settings(max_examples=40, deadline=None)
    @given(signed_arrays(max_dim=6))
    def test_roundtrip_property(self, rows):
        a = np.array(rows, dtype=np.int8)
        m = BinaryMatrix(a) if (a >= 0).all() else SignedMatrix(a)
        assert parse_matrix(serialize_matrix(m)) == m
