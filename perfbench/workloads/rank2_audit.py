"""rank2-audit: classify, complete and refute zero-sum M5 difference forms.

Each task takes one M5 index tuple (bound 3, the acceptance sweep's filter)
and runs canonical_rank2_E, rank_exact, classify_rank2 and
rank2_realizable.  A realizable form is completed and its witness verified;
a non-realizable form with at most Z zero cells is refuted by asking
is_realizable_witness about all 2^z candidates.

Why: it builds millions of tiny matrices, so matrix construction and
is_gram_pair dominate; iso and oracle do not run.  Every block of BLOCK
tasks holds the same kinds of form: one refutation per zero count 4..Z
(oversampled, so refutation is most of the run), REALIZABLE_PER_BLOCK
realizable forms and OTHER_PER_BLOCK non-realizable forms with more than Z
zero cells.  So every seed does the same work, the p99 task is a z = Z
refutation and the median task is a completion.  (With the kinds left to
chance, the median sat where the cheap and the completed forms meet, and
moved by a quarter between runs.)
"""

from __future__ import annotations

import numpy as np

from ..harness import FAIL, OK, Task
from ..make_m5_table import REALIZABLE, TABLE, Z, decode, encode, m5_tuples
from . import common

Z_LEVELS = tuple(range(4, Z + 1))
REALIZABLE_PER_BLOCK = 20
OTHER_PER_BLOCK = 8
BLOCKS = 45
BLOCK = REALIZABLE_PER_BLOCK + OTHER_PER_BLOCK + len(Z_LEVELS)


def _codes(path) -> list[str]:
    return [ln.split()[0] for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")]


def read_table() -> dict[int, list[str]]:
    """The refutable forms of data/m5_refutable.txt, by zero count."""
    by_z: dict[int, list[str]] = {}
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            code, z = line.split()
            by_z.setdefault(int(z), []).append(code)
    return by_z


class Workload:
    name = "rank2-audit"

    def __init__(self, seed: int, workdir=None):
        # modules, not functions: the tracer rebinds module attributes
        from grammate import gram, matrix_core, rank_forms

        self._gram, self._mc, self._rf = gram, matrix_core, rank_forms
        rng = np.random.default_rng(seed)
        by_z = read_table()
        refute = {z: [str(c) for c in rng.choice(by_z[z], size=BLOCKS, replace=len(by_z[z]) < BLOCKS)]
                  for z in Z_LEVELS}
        realizable = _codes(REALIZABLE)
        good = [realizable[i] for i in rng.choice(len(realizable),
                                                   REALIZABLE_PER_BLOCK * BLOCKS, replace=False)]

        # the rest of the sweep: non-realizable forms with more than Z zero cells
        listed = set(realizable) | {c for codes in by_z.values() for c in codes}
        pool = [c for c in map(encode, m5_tuples()) if c not in listed]
        other: list[str] = []
        for i in rng.permutation(len(pool)):
            E = rank_forms.canonical_rank2_E("M5", decode(pool[i]))
            if E.int64().any() and matrix_core.rank_exact(E) == 2:
                other.append(pool[i])
                if len(other) == OTHER_PER_BLOCK * BLOCKS:
                    break

        self.round: list[Task] = []
        for b in range(BLOCKS):
            block = [Task("refute", code, decode(code)) for code in
                     (refute[z][b] for z in Z_LEVELS)]
            block += [Task("realizable", code, decode(code)) for code in
                      good[b * REALIZABLE_PER_BLOCK:(b + 1) * REALIZABLE_PER_BLOCK]]
            block += [Task("other", code, decode(code)) for code in
                      other[b * OTHER_PER_BLOCK:(b + 1) * OTHER_PER_BLOCK]]
            self.round += [block[i] for i in rng.permutation(len(block))]

    def tasks(self) -> list[Task]:
        return self.round

    def warmup(self) -> list[Task]:
        return [t for t in self.round if t.label != "refute"][:10] + \
               [t for t in self.round if t.label == "refute"][:1]

    def run(self, task: Task):
        gram, mc, rf = self._gram, self._mc, self._rf
        E = rf.canonical_rank2_E("M5", task.payload)
        rank = mc.rank_exact(E)
        form = rf.classify_rank2(E)
        if rf.rank2_realizable(form):
            A = rf.rank2_complete(form)
            pair = gram.is_gram_pair(A, mc.BinaryMatrix((A.int64() + E.int64()).astype(np.int8)))
            return {"E": E, "rank": rank, "form": form, "witness": A, "pair": pair}
        e = E.int64()
        free = np.argwhere(e == 0)
        if len(free) > Z:
            return {"E": E, "rank": rank, "form": form}
        base = (e == -1).astype(np.int8)
        bits = (np.arange(1 << len(free))[:, None] >> np.arange(len(free))) & 1
        yes = calls = 0
        for row in bits:
            a = base.copy()
            a[free[:, 0], free[:, 1]] = row
            yes += bool(gram.is_realizable_witness(E, mc.BinaryMatrix(a)))
            calls += 1
        return {"E": E, "rank": rank, "form": form, "refuted": (yes, calls)}

    def check(self, task: Task, out):
        e = out["E"].int64()
        if out["rank"] != 2 or np.linalg.matrix_rank(e) != 2:
            return FAIL, f"rank_exact gave {out['rank']}"
        if out["form"] is None:
            return FAIL, f"classify_rank2 gave {out['form']!r}"
        if "witness" in out:
            a = out["witness"].int64()
            if out["pair"] is None or not common.is_gram_pair(a, a + e):
                return FAIL, "completion witness is not a Gram pair"
            if task.label == "refute":
                return FAIL, "called realizable but listed as refuted"
            return OK, ""
        if task.label == "realizable":
            return FAIL, "called not realizable, but a verified witness is listed"
        z = int((e == 0).sum())
        if "refuted" in out:
            yes, calls = out["refuted"]
            if yes or calls != 1 << z:
                return FAIL, f"refutation: {yes} witnesses accepted of {calls} (2^{z} tried)"
        elif task.label == "refute" or z <= Z:
            return FAIL, "refutation did not run"
        return OK, ""
