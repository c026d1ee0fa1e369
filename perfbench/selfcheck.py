"""The tracer's exact-count check, run before every traced run.

On enumerate_gram_pairs(m, n) for tiny shapes, every wrapped call count is
known exactly from the number of Gram pairs, which an independent numpy
enumeration supplies.  A miss means some binding escaped the wrapping, for
example a name oracle imported with `from .gram import is_gram_pair`.
"""

from __future__ import annotations

from .tracer import Tracer
from .workloads.exhaustive import expected_pairs

SHAPES = ((2, 2), (3, 3))


def expected_counts(m: int, n: int) -> dict[tuple[str, str], int]:
    """(name, parent) -> calls made by one enumerate_gram_pairs(m, n)."""
    p = len(expected_pairs(m, n))
    enum = "oracle.enumerate_gram_pairs"
    return {
        (enum, "task"): 1,
        ("matrix_core.construct", enum): 2 * p,  # both matrices of each pair
        ("gram.is_gram_pair", enum): p,
        ("matrix_core.construct", "gram.is_gram_pair"): p,  # the SignedMatrix difference
        ("matrix_core.rank_exact", "gram.is_gram_pair"): p,
        ("gram.GramPair", "gram.is_gram_pair"): p,
        ("matrix_core.row_sums", "gram.GramPair"): 2 * p,
        ("matrix_core.col_sums", "gram.GramPair"): 2 * p,
    }


def wrapped_call_counts() -> tuple[bool, str]:
    """(all counts exact, a one-line report)."""
    import grammate

    misses = []
    for m, n in SHAPES:
        tracer = Tracer()
        with tracer:
            tracer._enter("task")
            grammate.oracle.enumerate_gram_pairs(m, n)
            tracer._exit()
        want = expected_counts(m, n)
        got = {key: row[0] for key, row in tracer.agg.items() if key[0] != "task"}
        if got != want:
            misses.append(f"{m}x{n}: got {got}, expected {want}")
        if tracer.counters["oracle.codes_scanned"] != 1 << (m * n):
            misses.append(f"{m}x{n}: codes_scanned {tracer.counters['oracle.codes_scanned']}")
    return (not misses, "; ".join(misses) or f"exact on enumerate_gram_pairs {SHAPES}")
