import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grammate.gale_ryser import (
    InfeasibleError,
    conjugate,
    construct_urs,
    exists_urs,
    majorizes,
    signed_profile_block,
    spread_construction,
)
from grammate.matrix_core import col_sums, row_sums

degree_vectors = st.lists(st.integers(0, 4), min_size=1, max_size=5)


def check_signed_profile(X, m1, m2, n1, n2, row1, row2, col1, col2) -> bool:
    """Do the four signed block-sum identities hold?

    Rows in the first band have (left sum) - (right sum) = row1, rows in the
    second band row2; columns analogously col1 and col2 against the signed
    row split.
    """
    a = np.asarray(X, dtype=np.int64)
    if a.shape != (m1 + m2, n1 + n2):
        raise ValueError("shape mismatch")
    rsig = a[:, :n1].sum(axis=1) - a[:, n1:].sum(axis=1)
    csig = a[:m1].sum(axis=0) - a[m1:].sum(axis=0)
    return (
        (rsig[:m1] == row1).all()
        and (rsig[m1:] == row2).all()
        and (csig[:n1] == col1).all()
        and (csig[n1:] == col2).all()
    )


def profile_block(m1, m2, n1, n2, row1, row2, col1, col2):
    """signed_profile_block, asserted to exist and to have the profile."""
    x = signed_profile_block(m1, m2, n1, n2, row1, row2, col1, col2)
    assert x is not None, (m1, m2, n1, n2, row1, row2, col1, col2)
    assert check_signed_profile(x, m1, m2, n1, n2, row1, row2, col1, col2)
    return x


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

    def test_raises_exactly_when_empty(self):
        # the fill decides existence by itself; Gale-Ryser is the reference,
        # with sums past the shape and unequal totals included
        for m, n in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
            for r in itertools.product(range(n + 2), repeat=m):
                for s in itertools.product(range(m + 2), repeat=n):
                    try:
                        x = construct_urs(r, s)
                    except InfeasibleError:
                        assert not exists_urs(r, s), (r, s)
                        continue
                    assert exists_urs(r, s), (r, s)
                    assert row_sums(x) == r and col_sums(x) == s

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


class TestSignedProfileBlock:
    def test_exact_against_brute_force(self):
        # every size with m1 + m2 <= 3 and n1 + n2 <= 3, and every profile
        # one step beyond the reachable range: a block comes back, with the
        # profile, exactly when some (0,1) block has it
        checked = 0
        sizes = [(x, y) for x in range(4) for y in range(4) if x + y <= 3]
        for (m1, m2), (n1, n2) in itertools.product(sizes, repeat=2):
            m, n = m1 + m2, n1 + n2
            have = set()
            for bits in itertools.product((0, 1), repeat=m * n):
                a = np.array(bits, dtype=np.int64).reshape(m, n)
                rsig = a[:, :n1].sum(axis=1) - a[:, n1:].sum(axis=1)
                csig = a[:m1].sum(axis=0) - a[m1:].sum(axis=0)
                # a target of an empty band or group is None, and not read
                sig = []
                for part in (rsig[:m1], rsig[m1:], csig[:n1], csig[n1:]):
                    if len(set(part.tolist())) > 1:
                        break
                    sig.append(int(part[0]) if len(part) else None)
                else:
                    have.add(tuple(sig))
            spans = [range(-n2 - 1, n1 + 2) if m1 else [None],
                     range(-n2 - 1, n1 + 2) if m2 else [None],
                     range(-m2 - 1, m1 + 2) if n1 else [None],
                     range(-m2 - 1, m1 + 2) if n2 else [None]]
            for prof in itertools.product(*spans):
                x = signed_profile_block(m1, m2, n1, n2, *prof)
                assert (x is not None) == (prof in have), (m1, m2, n1, n2, prof)
                if x is not None:
                    assert set(np.unique(x).tolist()) <= {0, 1}
                    assert check_signed_profile(x, m1, m2, n1, n2, *(t or 0 for t in prof))
                checked += 1
        assert checked > 10_000


class TestEvenBlock:
    """The even lemma: both pair sums even give a block whose rows have
    signed sum (n1-n2)/2 and whose columns have (m1-m2)/2."""

    def test_exhaustive_identities(self):
        profiles = 0
        for m1, m2, n1, n2 in itertools.product(range(6), repeat=4):
            if (m1 + m2) % 2 or (n1 + n2) % 2 or m1 + m2 == 0 or n1 + n2 == 0:
                continue
            h_r, h_c = (n1 - n2) // 2, (m1 - m2) // 2
            profile_block(m1, m2, n1, n2, h_r, h_r, h_c, h_c)
            profiles += 1
        assert profiles == 289


class TestProportionalBlock:
    """The proportional lemma: with a1, a2, b1, b2 positive, m1+m2 > a1+a2,
    n1+n2 > b1+b2, m1-m2 = a1-a2, n1-n2 = b1-b2 and (n1+n2)/(m1+m2) =
    (b1+b2)/(a1+a2), a block has rows b1 and -b2 and columns a1 and -a2."""

    def test_paper_worked_example(self):
        profile_block(9, 11, 9, 7, 5, -3, 4, -6)

    def test_equal_product_branch(self):
        # m1*b1 = n1*a1
        profile_block(2, 2, 2, 2, 1, -1, 1, -1)

    def test_transpose_branch(self):
        # m1*b1 < n1*a1
        profile_block(9, 7, 9, 11, 4, -6, 5, -3)

    def test_hypothesis_violations(self):
        # these break m1*b1 + m2*b2 = n1*a1 + n2*a2, which counts the
        # block's signed total by rows and by columns: no block has them
        assert signed_profile_block(2, 2, 2, 3, 1, -1, 1, -1) is None
        assert signed_profile_block(2, 2, 2, 2, 1, -1, 0, -1) is None
        assert signed_profile_block(2, 2, 2, 2, 1, -1, 2, -1) is None

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
                profile_block(m1, m2, n1, n2, b1, -b2, a1, -a2)
                found += 1
        assert found > 20
