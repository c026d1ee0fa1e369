import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grammate.gale_ryser import (
    InfeasibleError,
    _even_layout,
    check_signed_profile,
    conjugate,
    construct_urs,
    even_block,
    exists_urs,
    majorizes,
    proportional_block,
    spread_construction,
)
from grammate.matrix_core import col_sums, row_sums

degree_vectors = st.lists(st.integers(0, 4), min_size=1, max_size=5)


class TestConjugate:
    def test_known_value(self):
        assert conjugate((3, 3, 3, 3, 3), 5) == (5, 5, 5, 0, 0)

    def test_zeros(self):
        assert conjugate((0, 0), 3) == (0, 0, 0)

    def test_small(self):
        assert conjugate((2, 1), 2) == (2, 1)

    @settings(max_examples=50, deadline=None)
    @given(degree_vectors)
    def test_involution_on_partitions(self, v):
        # conjugating twice restores the sorted vector
        n = max(v) + 1
        c = conjugate(v, n)
        back = conjugate(c, len(v))
        assert list(back) == sorted(v, reverse=True)


class TestMajorizes:
    def test_reflexive(self):
        assert majorizes((2, 1), (2, 1))

    def test_strict(self):
        assert majorizes((3, 1), (2, 2))
        assert not majorizes((2, 2), (3, 1))

    def test_total_mismatch(self):
        assert not majorizes((3,), (1, 1))

    @settings(max_examples=50, deadline=None)
    @given(degree_vectors, degree_vectors, degree_vectors)
    def test_transitive(self, a, b, c):
        if majorizes(a, b) and majorizes(b, c):
            assert majorizes(a, c)


def brute_force_exists(r, s):
    m, n = len(r), len(s)
    for bits in itertools.product((0, 1), repeat=m * n):
        a = np.array(bits).reshape(m, n)
        if list(a.sum(axis=1)) == list(r) and list(a.sum(axis=0)) == list(s):
            return True
    return False


class TestExistsUrs:
    def test_simple_cases(self):
        assert exists_urs((1, 1), (2, 0))
        assert not exists_urs((2,), (1, 1, 1))
        assert exists_urs((3, 3, 0, 2, 3), (3, 3, 3, 2))

    def test_against_brute_force(self):
        # all R,S over small shapes
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            for r in itertools.product(range(n + 1), repeat=m):
                for s in itertools.product(range(m + 1), repeat=n):
                    if sum(r) != sum(s) or sum(r) > 12:
                        continue
                    assert exists_urs(r, s) == brute_force_exists(r, s), (r, s)


class TestConstructUrs:
    def test_tie_rule_gives_identity(self):
        assert (construct_urs((1, 1), (1, 1)).data == np.eye(2)).all()

    def test_forced_square(self):
        assert (construct_urs((2, 2), (2, 2)).data == 1).all()

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            construct_urs((2,), (1, 1, 1))

    def test_paper_instance(self):
        m = construct_urs((3, 3, 0, 2, 3), (3, 3, 3, 2))
        assert row_sums(m) == (3, 3, 0, 2, 3)
        assert col_sums(m) == (3, 3, 3, 2)

    @settings(max_examples=100, deadline=None)
    @given(degree_vectors, st.integers(1, 5))
    def test_sums_always_exact(self, r, n):
        s = list(conjugate(r, n))
        if not exists_urs(r, s):
            return
        m = construct_urs(r, s)
        assert row_sums(m) == tuple(r)
        assert col_sums(m) == tuple(s)


class TestSpreadConstruction:
    def test_paper_display(self):
        m = spread_construction((3, 3, 0, 2, 3), 4)
        expected = np.array(
            [
                [1, 1, 1, 0],
                [1, 1, 0, 1],
                [0, 0, 0, 0],
                [0, 0, 1, 1],
                [1, 1, 1, 0],
            ]
        )
        assert (m.data == expected).all()

    def test_single_full_row(self):
        assert (spread_construction((3,), 3).data == 1).all()

    def test_identity_fold(self):
        m = spread_construction((1, 1, 1), 3)
        assert col_sums(m) == (1, 1, 1)

    def test_row_too_long(self):
        with pytest.raises(ValueError):
            spread_construction((4,), 3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 6).map(lambda x: min(x, n)), min_size=1, max_size=6))))
    def test_column_sum_formula(self, arg):
        n, r = arg
        m = spread_construction(r, n)
        assert row_sums(m) == tuple(r)
        q, rem = divmod(sum(r), n)
        assert col_sums(m) == tuple([q + 1] * rem + [q] * (n - rem))


class TestEvenBlock:
    def test_zero_when_balanced(self):
        assert not even_block(2, 2, 3, 3).data.any()

    def test_requires_parity(self):
        with pytest.raises(ValueError):
            even_block(2, 1, 1, 1)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            even_block(0, 2, 1, 1)

    def test_exhaustive_identities(self):
        for m1, m2, n1, n2 in itertools.product(range(1, 6), repeat=4):
            if (m1 + m2) % 2 or (n1 + n2) % 2:
                continue
            x = even_block(m1, m2, n1, n2)
            assert check_signed_profile(
                x, m1, m2, n1, n2, (n1 - n2) // 2, (n1 - n2) // 2, (m1 - m2) // 2, (m1 - m2) // 2
            ), (m1, m2, n1, n2)
        # the layout itself also takes zero sizes, as the M5 completion needs
        profiles = 0
        for m1, m2, n1, n2 in itertools.product(range(6), repeat=4):
            if (m1 + m2) % 2 or (n1 + n2) % 2 or m1 + m2 == 0 or n1 + n2 == 0:
                continue
            x = _even_layout(m1, m2, n1, n2)
            assert check_signed_profile(
                x, m1, m2, n1, n2, (n1 - n2) // 2, (n1 - n2) // 2, (m1 - m2) // 2, (m1 - m2) // 2
            ), (m1, m2, n1, n2)
            profiles += 1
        assert profiles == 289


class TestProportionalBlock:
    def test_paper_worked_example(self):
        y = proportional_block(4, 6, 5, 3, 9, 11, 9, 7)
        assert check_signed_profile(y, 9, 11, 9, 7, 5, -3, 4, -6)
        # the middle-left block is the identity over two zero rows
        assert (y.data[9:20, :9] == np.vstack([np.eye(9), np.zeros((2, 9))])).all()

    def test_equal_product_branch(self):
        y = proportional_block(1, 1, 1, 1, 2, 2, 2, 2)
        assert check_signed_profile(y, 2, 2, 2, 2, 1, -1, 1, -1)

    def test_transpose_branch(self):
        # m1*b1 < n1*a1 exercises the transposed recursion
        y = proportional_block(5, 3, 4, 6, 9, 7, 9, 11)
        assert check_signed_profile(y, 9, 7, 9, 11, 4, -6, 5, -3)

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            proportional_block(1, 1, 1, 1, 2, 2, 2, 3)
        with pytest.raises(ValueError):
            proportional_block(0, 1, 1, 1, 2, 2, 2, 2)
        with pytest.raises(ValueError):
            proportional_block(2, 1, 1, 1, 2, 2, 2, 2)

    def test_small_sweep(self):
        found = 0
        for a1, a2, b1, b2 in itertools.product(range(1, 4), repeat=4):
            for m1 in range(a1 + 1, a1 + 4):
                m2 = m1 - a1 + a2
                prod = (m1 + m2) * (b1 + b2)
                if prod % (a1 + a2):
                    continue
                n_total = prod // (a1 + a2)
                n1 = (n_total + b1 - b2) // 2
                n2 = n_total - n1
                if n1 - n2 != b1 - b2 or n1 <= b1 or n2 <= 0:
                    continue
                y = proportional_block(a1, a2, b1, b2, m1, m2, n1, n2)
                assert check_signed_profile(y, m1, m2, n1, n2, b1, -b2, a1, -a2)
                found += 1
        assert found > 20
