import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from grammate import gram
from grammate.gram import (
    CHECK_NAMES,
    GramPair,
    convertibility,
    is_gram_pair,
    is_realizable_witness,
)
from grammate.matrix_core import BinaryMatrix, SignedMatrix
from grammate.oracle import enumerate_gram_pairs

EXCHANGE = BinaryMatrix(np.array([[0, 1], [1, 0]]))
I2 = BinaryMatrix.identity(2)


def float_conditions(pair) -> tuple[bool, bool, bool]:
    """Reference: the three singular-vector conditions in floating point.

    (sign_flip_recovers_mate, right_vectors_null, left_vectors_null) from
    the SVD of (A-B)/2 for its positive singular values: the residuals of
    AV = U Sigma, A^T U = V Sigma, (A+B)V = 0 and (A+B)^T U = 0, and the
    residual of each vector after least-squares projection onto the row or
    column space of A-B, each at most 1e-9 * max(1, max|A|).
    """
    a, b = pair.A.int64(), pair.B.int64()
    d, s = a - b, a + b
    k = np.linalg.matrix_rank(d)
    U, sigma, Vt = np.linalg.svd(d / 2.0)
    sv, V, U = sigma[:k], Vt[:k].T, U[:, :k]
    tol = 1e-9 * max(1.0, float(np.abs(a).max()))

    def small(residual):
        return bool(np.abs(residual).max() <= tol)

    def outside_span(basis, X):
        return X - basis @ np.linalg.lstsq(basis, X, rcond=None)[0]

    return (small(a @ V - U * sv) and small(a.T @ U - V * sv),
            small(s @ V) and small(outside_span(d.T, V)),
            small(s.T @ U) and small(outside_span(d, U)))


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

    def test_signed_input_is_a_value_error(self):
        # the Gram identities hold for these two, so only the type check can
        # refuse them; before it, is_gram_pair failed a bare assert
        A = SignedMatrix(np.array([[1, 0], [0, -1]]))
        B = SignedMatrix(np.array([[0, 1], [-1, 0]]))
        with pytest.raises(ValueError):
            is_gram_pair(A, B)
        with pytest.raises(ValueError):
            GramPair(A, B, 2)
        with pytest.raises(ValueError):
            is_gram_pair(EXCHANGE, SignedMatrix(np.eye(2, dtype=np.int8)))

    def test_signed_input_is_a_value_error_under_python_O(self):
        # python -O strips asserts: the check must not rest on one
        code = (
            "import numpy as np\n"
            "from grammate.gram import is_gram_pair\n"
            "from grammate.matrix_core import SignedMatrix\n"
            "try:\n"
            "    print(is_gram_pair(SignedMatrix(np.array([[1, 0], [0, -1]])),\n"
            "                       SignedMatrix(np.array([[0, 1], [-1, 0]]))))\n"
            "except ValueError:\n"
            "    print('ValueError')\n"
        )
        src = str(pathlib.Path(gram.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "ValueError"

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

    def test_signed_A_is_a_value_error(self):
        # A + E = [[0,1],[1,0]] and -I share its Grams, yet -I is not (0,1)
        J2 = SignedMatrix(np.ones((2, 2), dtype=np.int8))
        with pytest.raises(ValueError):
            is_realizable_witness(J2, SignedMatrix(-np.eye(2, dtype=np.int8)))

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
        # both bases of the three exact basis checks come from one
        # elimination; every check must equal the integer verdict, computed
        # here, and so must the float reference
        total = convertible = 0
        for m, n in itertools.product(range(2, 5), repeat=2):
            for pair in enumerate_gram_pairs(m, n):
                a, b = pair.A.int64(), pair.B.int64()
                verdict = not ((a + b) @ (a - b).T).any()
                rep = convertibility(pair)
                assert rep.checks == dict.fromkeys(CHECK_NAMES, verdict)
                assert float_conditions(pair) == (verdict,) * 3
                total += 1
                convertible += verdict
        assert (total, convertible) == (14632, 12676)

    @pytest.mark.parametrize("diff_rank", [0, 5, 99])
    def test_the_callers_diff_rank_is_not_read(self, diff_rank):
        # GramPair takes diff_rank on trust; the report is sliced at the
        # rank of its own elimination of A - B
        rep = convertibility(GramPair(I2, EXCHANGE, diff_rank))
        assert rep.convertible and rep.gram_singular.values == (1.0,)

    def test_checks_that_disagree_raise(self, monkeypatch):
        # I3 and the 3-cycle do not convert; empty bases make the three
        # basis checks pass vacuously, so they disagree with the other four
        pair = is_gram_pair(BinaryMatrix.identity(3), perm_matrix((1, 2, 0)))
        monkeypatch.setattr(gram, "_pivots", lambda d: ([], []))
        with pytest.raises(RuntimeError, match="disagree"):
            convertibility(pair)
