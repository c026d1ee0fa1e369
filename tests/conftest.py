import pathlib

import pytest

from grammate import rank_forms
from grammate.matrix_core import load_matrix

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_matrix(name):
    return load_matrix(FIXTURES / name)


@pytest.fixture
def rank1_example():
    """The 7x7 rank-1 pair (A, B = A+E) and its difference E."""
    return (
        fixture_matrix("ex_rank1_A.mtxt"),
        fixture_matrix("ex_rank1_B.mtxt"),
        fixture_matrix("ex_rank1_E.mtxt"),
    )


@pytest.fixture
def rank1_6x6_example():
    """A 6x6 rank-1 pair (A, B = A+E), k1 = k2 = 2, that is non-isomorphic,
    not fixable and not sum-separated."""
    return fixture_matrix("ex_rank1_6x6_A.mtxt"), fixture_matrix("ex_rank1_6x6_B.mtxt")


@pytest.fixture
def unverified_fill(monkeypatch):
    """rank_forms._fill puts a one on cell (0, -1) of every witness it builds.

    In canonical coordinates that cell joins a live row of E to a zero
    column, when E has one: A + E stays (0,1) but A^T A = B^T B breaks, so
    only the completion's own Gram check can catch it.
    """
    fill = rank_forms._fill

    def wrong(*args):
        A = fill(*args)
        A[0, -1] = 1
        return A

    monkeypatch.setattr(rank_forms, "_fill", wrong)


@pytest.fixture
def same_entries_example():
    """The 10x10 pair whose row/column sum vectors share entries across blocks."""
    return (
        fixture_matrix("ex_same_entries_A.mtxt"),
        fixture_matrix("ex_same_entries_E.mtxt"),
    )
