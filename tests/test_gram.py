import itertools

import numpy as np
import pytest

from grammate import numerics
from grammate.gram import (
    CHECK_NAMES,
    convertibility,
    embed_check,
    is_gram_pair,
    is_realizable_witness,
)
from grammate.matrix_core import BinaryMatrix, SignedMatrix
from grammate.oracle import enumerate_gram_pairs

EXCHANGE = BinaryMatrix(np.array([[0, 1], [1, 0]]))
I2 = BinaryMatrix.identity(2)


def perm_matrix(img):
    m = np.zeros((len(img), len(img)), dtype=np.int8)
    for i, j in enumerate(img):
        m[j, i] = 1
    return BinaryMatrix(m)


class TestIsGramPair:
    def test_exchange_identity(self):
        p = is_gram_pair(EXCHANGE, I2)
        assert p is not None and p.diff_rank == 1

    def test_equal_is_not_pair(self):
        assert is_gram_pair(I2, I2) is None

    def test_gram_identity_must_hold(self):
        assert is_gram_pair(I2, BinaryMatrix.ones(2, 2)) is None

    def test_paper_example(self, rank1_example):
        A, B, E = rank1_example
        p = is_gram_pair(A, B)
        assert p is not None and p.diff_rank == 1
        # diff() is A - B; the fixture E is B - A
        assert (p.diff().int64() == -E.int64()).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_gram_pair(I2, BinaryMatrix.ones(2, 3))

    def test_mates_of_identity_are_permutations(self):
        # every non-identity permutation matrix is a mate of I
        for img in itertools.permutations(range(3)):
            P = perm_matrix(img)
            expected = P != BinaryMatrix.identity(3)
            assert (is_gram_pair(BinaryMatrix.identity(3), P) is not None) == expected


class TestRealizableWitness:
    def test_paper_examples(self, rank1_example, same_entries_example):
        A, _, E = rank1_example
        assert is_realizable_witness(E, A)
        A10, E10 = same_entries_example
        assert is_realizable_witness(E10, A10)

    def test_zero_matrix_never_realizable(self):
        # A + 0 = A is not distinct from A
        assert not is_realizable_witness(SignedMatrix.zeros(2, 2), EXCHANGE)

    def test_sum_must_stay_binary(self):
        e = SignedMatrix(np.array([[1, -1], [-1, 1]]))
        with pytest.raises(ValueError):
            is_realizable_witness(e, BinaryMatrix.ones(2, 2))

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (3, 3)])
    def test_matches_is_gram_pair_on_every_pair(self, m, n):
        # E = B - A over every ordered (A, B), so A + E = B stays (0,1)
        codes = np.arange(1 << (m * n))[:, None] >> np.arange(m * n) & 1
        mats = [BinaryMatrix(c.reshape(m, n).astype(np.int8)) for c in codes]
        yes = 0
        for A in mats:
            for B in mats:
                want = is_gram_pair(A, B) is not None
                assert is_realizable_witness(SignedMatrix(B.data - A.data), A) == want
                yes += want
        assert yes == 2 * len(enumerate_gram_pairs(m, n))

    def test_matches_is_gram_pair_on_random_differences(self):
        rng = np.random.default_rng(11)
        raised = decided = 0
        for _ in range(3000):
            m, n = rng.integers(1, 5, 2)
            a = rng.integers(0, 2, (m, n))
            e = rng.integers(-1, 2, (m, n))
            A, E = BinaryMatrix(a), SignedMatrix(e)
            if ((a + e) < 0).any() or ((a + e) > 1).any():
                with pytest.raises(ValueError):
                    is_realizable_witness(E, A)
                raised += 1
            else:
                want = is_gram_pair(A, BinaryMatrix(a + e)) is not None
                assert is_realizable_witness(E, A) == want
                decided += 1
        assert raised > 1000 and decided > 300


class TestEmbedCheck:
    def test_zero_borders_pass(self):
        e = SignedMatrix(np.array([[1, -1], [-1, 1]]))
        assert embed_check(e, BinaryMatrix.zeros(2, 3), BinaryMatrix.zeros(3, 2))

    def test_paper_borders(self, rank1_example):
        A, _, E = rank1_example
        et = SignedMatrix(E.data[:4, :4])
        x1 = BinaryMatrix(A.data[:4, 4:])
        x2 = BinaryMatrix(A.data[4:, :4])
        assert embed_check(et, x1, x2)

    def test_violating_border(self):
        e = SignedMatrix(np.array([[1, -1], [-1, 1]]))
        x1 = BinaryMatrix(np.array([[1], [0]]))
        assert not embed_check(e, x1, BinaryMatrix.zeros(1, 2))


class TestConvertibility:
    def test_paper_example(self, rank1_example):
        A, B, _ = rank1_example
        rep = convertibility(is_gram_pair(A, B))
        assert rep.convertible
        assert tuple(rep.checks) == CHECK_NAMES
        assert all(rep.checks.values())
        assert abs(rep.gram_singular.values[0] - 2.0) < 1e-9
        v = rep.gram_singular.right_vectors[:, 0]
        target = np.array([1, 1, -1, -1, 0, 0, 0]) / 2.0
        assert np.abs(np.abs(v) - np.abs(target)).max() < 1e-8

    def test_identity_mates_convertible_iff_symmetric(self):
        # mates of I are permutation matrices; convertible exactly when symmetric
        I4 = BinaryMatrix.identity(4)
        for img in itertools.permutations(range(4)):
            P = perm_matrix(img)
            pair = is_gram_pair(I4, P)
            if pair is None:
                continue
            rep = convertibility(pair)
            assert rep.convertible == (P.data == P.data.T).all()
            assert len(set(rep.checks.values())) == 1

    def test_gram_singular_only_when_convertible(self):
        pair = is_gram_pair(BinaryMatrix.identity(3), perm_matrix((1, 2, 0)))
        rep = convertibility(pair)
        assert not rep.convertible and rep.gram_singular is None

    def test_all_pairs_up_to_4x4_match_the_integer_verdict(self):
        # both bases of the span checks come from one elimination; every
        # check must still equal the integer verdict, computed here
        total = convertible = 0
        for m, n in itertools.product(range(2, 5), repeat=2):
            for pair in enumerate_gram_pairs(m, n):
                a, b = pair.A.int64(), pair.B.int64()
                verdict = not ((a + b) @ (a - b).T).any()
                rep = convertibility(pair)
                assert rep.checks == dict.fromkeys(CHECK_NAMES, verdict)
                total += 1
                convertible += verdict
        assert (total, convertible) == (14632, 12676)

    def test_rotated_singular_vectors_raise(self, monkeypatch, rank1_example):
        # turning each first singular vector towards the null space of A - B
        # takes it out of the row space; a numeric check must then fail
        real = numerics.svd

        def givens(n, angle=0.3):
            g = np.eye(n)
            g[0, 0] = g[-1, -1] = np.cos(angle)
            g[0, -1], g[-1, 0] = -np.sin(angle), np.sin(angle)
            return g

        def rotated(a):
            b = real(a)
            return numerics.SvdBundle(U=b.U @ givens(len(b.U)), sigma=b.sigma,
                                      V=b.V @ givens(len(b.V)))

        monkeypatch.setattr(numerics, "svd", rotated)
        A, B, _ = rank1_example
        with pytest.raises(RuntimeError, match="numeric"):
            convertibility(is_gram_pair(A, B))

    def test_vectors_outside_the_difference_row_space_raise(self, monkeypatch):
        # e3 is a null vector of A and B on both sides: with value 0 it passes
        # the sign-flip and (A+B)-null checks, so only the exact span test,
        # which must not lean on the SVD it checks, can reject it
        A = BinaryMatrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
        B = BinaryMatrix(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
        e = np.eye(3)[:, ::-1]
        monkeypatch.setattr(numerics, "svd", lambda a: numerics.SvdBundle(
            U=e, sigma=np.zeros(3), V=e))
        with pytest.raises(RuntimeError, match="numeric"):
            convertibility(is_gram_pair(A, B))
