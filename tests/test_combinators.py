import numpy as np
import pytest

from grammate.combinators import (
    block_swap_pair,
    complement_pair,
    direct_sum_pair,
    join_pair,
    kron_pair,
    kron_swap,
)
from grammate.gram import convertibility, is_gram_pair
from grammate.matrix_core import BinaryMatrix
from grammate.rank_forms import classify_rank2

EXCHANGE = BinaryMatrix(np.array([[0, 1], [1, 0]], dtype=np.int8))
I2 = BinaryMatrix(np.eye(2, dtype=np.int8))


def exchange_pair():
    return is_gram_pair(EXCHANGE, I2)


def paper_pair(rank1_example):
    A, B, _ = rank1_example
    return is_gram_pair(A, B)


class TestComplement:
    def test_swaps_exchange_and_identity(self):
        p = complement_pair(exchange_pair())
        assert p.A == I2 and p.B == EXCHANGE

    def test_paper_pair_verifies(self, rank1_example):
        complement_pair(paper_pair(rank1_example))

    def test_involution(self, rank1_example):
        p = paper_pair(rank1_example)
        back = complement_pair(complement_pair(p))
        assert back.A == p.A and back.B == p.B


class TestDirectSumAndJoin:
    def test_diff_rank_adds(self, rank1_example):
        p = exchange_pair()
        s = direct_sum_pair(p, p)
        assert s.A.shape == (4, 4)
        assert s.diff_rank == 2
        big = direct_sum_pair(p, paper_pair(rank1_example))
        assert big.diff_rank == p.diff_rank + 1

    def test_join_verifies(self, rank1_example):
        j = join_pair(exchange_pair(), paper_pair(rank1_example))
        assert j.A.shape == (9, 9)

    def test_direct_sum_difference_is_m2(self):
        p = exchange_pair()
        f = classify_rank2(direct_sum_pair(p, p).diff())
        assert f is not None and f.mtype == "M2"


class TestKron:
    def test_exchange_squared(self):
        p = kron_pair(exchange_pair(), exchange_pair())
        assert (p.B.int64() == np.eye(4)).all()

    def test_with_paper_pair(self, rank1_example):
        p = kron_pair(exchange_pair(), paper_pair(rank1_example))
        assert p.A.shape == (14, 14)
        assert p.diff_rank >= 1

    def test_swap(self, rank1_example):
        p = kron_swap(exchange_pair())
        assert p.A.shape == (4, 4)
        assert p.diff_rank >= 1
        assert kron_swap(paper_pair(rank1_example)).A.shape == (49, 49)


class TestBlockSwap:
    def test_smallest(self):
        p = block_swap_pair(BinaryMatrix.zeros(1, 1), BinaryMatrix(np.array([[1]], dtype=np.int8)))
        assert p.A == EXCHANGE
        rep = convertibility(p)
        assert rep.convertible
        assert abs(rep.gram_singular.values[0] - 1.0) < 1e-12

    def test_values_come_from_difference(self):
        j2 = BinaryMatrix(np.ones((2, 2), dtype=np.int8))
        p = block_swap_pair(I2, j2)
        rep = convertibility(p)
        assert rep.convertible
        # I - J has singular values {1, 1}
        assert np.allclose(sorted(rep.gram_singular.values), [1.0, 1.0], atol=1e-9)

    def test_random_blocks_always_convertible(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 100:
            a1 = BinaryMatrix(rng.integers(0, 2, size=(3, 3)).astype(np.int8))
            a2 = BinaryMatrix(rng.integers(0, 2, size=(3, 3)).astype(np.int8))
            if a1 == a2:
                continue
            p = block_swap_pair(a1, a2)
            rep = convertibility(p)
            assert rep.convertible
            d = a1.int64() - a2.int64()
            sv = sorted(x for x in np.linalg.svd(d, compute_uv=False) if x > 1e-9)
            assert np.allclose(sorted(rep.gram_singular.values), sv, atol=1e-8)
            done += 1

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="same dimensions"):
            block_swap_pair(I2, BinaryMatrix.ones(2, 3))

    def test_equal_blocks_rejected(self):
        with pytest.raises(ValueError):
            block_swap_pair(I2, I2)
