"""exhaustive: enumerate every Gram pair up to 4x4 and audit each one.

One task per shape m x n in 2..4 x 2..4 runs oracle.enumerate_gram_pairs,
and one task per emitted pair runs is_gram_pair, the sum-vector check,
classify_rank1 or classify_rank2 by difference rank, and convertibility.

Why: the oracle's code scan, the Jacobi SVD in numerics and
gram.convertibility dominate; iso and rank2_complete do not run.  The seed
only orders the audits within a shape, since the inputs are all pairs.  The
expected pairs come from a vectorized numpy enumeration made at set-up.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..harness import FAIL, OK, Task
from . import common

SHAPES = tuple(itertools.product(range(2, 5), range(2, 5)))


def _decode_all(m: int, n: int) -> np.ndarray:
    """Every m x n (0,1) matrix; matrix c has bit t of c at flat position t."""
    codes = np.arange(1 << (m * n), dtype=np.int64)
    return ((codes[:, None] >> np.arange(m * n)) & 1).reshape(-1, m, n)


def expected_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """All (c1, c2), c1 < c2, whose matrices have equal row and column Grams,
    sorted; an independent reference for enumerate_gram_pairs."""
    a = _decode_all(m, n)
    key = np.concatenate([(a @ a.transpose(0, 2, 1)).reshape(len(a), -1),
                          (a.transpose(0, 2, 1) @ a).reshape(len(a), -1)], axis=1)
    _, group = np.unique(key, axis=0, return_inverse=True)
    members: dict[int, list[int]] = {}
    for code, g in enumerate(group.ravel().tolist()):
        members.setdefault(g, []).append(code)
    return sorted(p for codes in members.values() for p in itertools.combinations(codes, 2))


def code_of(M) -> int:
    return int(M.data.astype(np.int64).ravel() @ (1 << np.arange(M.data.size, dtype=np.int64)))


class Workload:
    name = "exhaustive"

    def __init__(self, seed: int, workdir=None):
        # modules, not functions: the tracer rebinds module attributes
        from grammate import gram, matrix_core, oracle, rank_forms

        self._gram, self._mc, self._oracle, self._rf = gram, matrix_core, oracle, rank_forms
        # Shape by shape, each enumeration before its audits: the 4x4 scan
        # leaves a much larger heap behind, so where it falls in the round
        # moved the audit times by up to 30% when the seed placed it.
        rng = np.random.default_rng(seed)
        self.expected: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.round: list[Task] = []
        for m, n in SHAPES:
            pairs = self.expected[(m, n)] = expected_pairs(m, n)
            self.round.append(Task("enumerate", f"enumerate_gram_pairs({m}, {n})", (m, n)))
            mats = _decode_all(m, n).astype(np.int8)
            self.round += [Task("audit", f"audit {m}x{n} codes {pairs[i][0]} {pairs[i][1]}",
                                (mats[pairs[i][0]], mats[pairs[i][1]]))
                           for i in rng.permutation(len(pairs))]

    def tasks(self) -> list[Task]:
        return self.round

    def warmup(self) -> list[Task]:
        small = [t for t in self.round if t.label == "enumerate" and t.payload == (2, 2)]
        return small + [t for t in self.round if t.label == "audit"][:20]

    def run(self, task: Task):
        gram, mc, rf = self._gram, self._mc, self._rf
        if task.label == "enumerate":
            return self._oracle.enumerate_gram_pairs(*task.payload)
        pair = gram.is_gram_pair(mc.BinaryMatrix(task.payload[0]), mc.BinaryMatrix(task.payload[1]))
        sums = (mc.row_sums(pair.A) == mc.row_sums(pair.B)
                and mc.col_sums(pair.A) == mc.col_sums(pair.B))
        form = None
        if pair.diff_rank == 1:
            form = rf.classify_rank1(pair.diff())
        elif pair.diff_rank == 2:
            form = rf.classify_rank2(pair.diff())
        return pair, sums, form, gram.convertibility(pair)

    def check(self, task: Task, out):
        if task.label == "enumerate":
            got = [(code_of(p.A), code_of(p.B)) for p in out]
            want = self.expected[task.payload]
            if got != want:
                return FAIL, f"emitted {len(got)} pairs, expected {len(want)}"
            for p in out:
                d = p.A.int64() - p.B.int64()
                if p.diff_rank != np.linalg.matrix_rank(d):
                    return FAIL, f"diff_rank {p.diff_rank} is wrong"
            return OK, ""
        pair, sums, form, report = out
        a, b = task.payload[0].astype(np.int64), task.payload[1].astype(np.int64)
        rank = int(np.linalg.matrix_rank(a - b))
        if pair is None or pair.diff_rank != rank:
            return FAIL, f"is_gram_pair gave {pair!r}, difference rank {rank}"
        if not sums:
            return FAIL, "sum vectors reported different"
        if rank == 1 and (form is None or 4 * form.k1 * form.k2 != int((a != b).sum())):
            return FAIL, f"classify_rank1 gave {form!r}"
        if rank == 2 and form is None:
            return FAIL, "classify_rank2 gave None"
        convertible = not ((a + b) @ (a - b).T).any()
        if report.convertible != convertible:
            return FAIL, f"convertibility said {report.convertible}"
        return OK, ""
