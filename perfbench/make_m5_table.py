"""Write the two form tables the rank2-audit workload samples from.

data/m5_refutable.txt lists the non-realizable zero-sum M5 forms (index
bound 3) with at most Z zero cells in E; each is proven non-realizable here
by checking all 2^z candidate witnesses.  data/m5_realizable.txt lists the
realizable ones; each has a completion witness verified here in numpy.
With them the workload fixes how many tasks of each kind a block holds, so
every seed does the same work and the median task stays inside one kind.

    python3 perfbench/make_m5_table.py      # from the repository root
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

Z = 10
BOUND = 3
NAMES = "klpqrsabcdef"
DATA = Path(__file__).resolve().parent / "data"
TABLE = DATA / "m5_refutable.txt"
REALIZABLE = DATA / "m5_realizable.txt"


def m5_tuples(bound: int = BOUND):
    """Zero-sum M5 index tuples with every index in 0..bound, both index
    groups nonzero (the sweep filter of the acceptance suite)."""
    rng = range(bound + 1)
    for k, l, p, r, a, c, d, e in itertools.product(rng, repeat=8):
        q, s, b, f = p + (k - l), r + (k - l), a - (d - c), e + (d - c)
        if not all(0 <= v <= bound for v in (q, s, b, f)):
            continue
        if k + l + p + q + r + s == 0 or a + b + c + d + e + f == 0:
            continue
        yield (k, l, p, q, r, s, a, b, c, d, e, f)


def encode(t) -> str:
    return "".join(str(v) for v in t)


def decode(code: str) -> dict[str, int]:
    return {n: int(ch) for n, ch in zip(NAMES, code)}


def _has_witness(e: np.ndarray) -> bool:
    base = (e == -1).astype(np.int64)
    free = np.argwhere(e == 0)
    for bits in range(1 << len(free)):
        a = base.copy()
        for t, (i, j) in enumerate(free):
            a[i, j] = bits >> t & 1
        b = a + e
        if (a @ a.T == b @ b.T).all() and (a.T @ a == b.T @ b).all():
            return True
    return False


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.harness import import_grammate

    import_grammate()
    from grammate.matrix_core import rank_exact
    from grammate.rank_forms import (canonical_rank2_E, classify_rank2, rank2_complete,
                                     rank2_realizable)

    refutable, realizable = [], []
    for t in m5_tuples():
        E = canonical_rank2_E("M5", decode(encode(t)))
        e = E.int64()
        z = int((e == 0).sum())
        if not e.any() or rank_exact(E) != 2:
            continue
        form = classify_rank2(E)
        if rank2_realizable(form):
            a = rank2_complete(form).int64()
            b = a + e
            if not ((a @ a.T == b @ b.T).all() and (a.T @ a == b.T @ b).all()):
                raise SystemExit(f"{encode(t)}: completion witness is not a Gram pair")
            realizable.append(encode(t))
        elif z <= Z:
            if _has_witness(e):
                raise SystemExit(f"{encode(t)}: classified not realizable but a witness exists")
            refutable.append(f"{encode(t)} {z}")
    scope = f"zero-sum M5 forms, indices {NAMES} in 0..{BOUND}"
    TABLE.write_text(
        f"# Non-realizable {scope}, at most {Z} zero cells; each refuted over all 2^z "
        "witnesses.\n# columns: the 12 indices as digits, then z.  Made by make_m5_table.py.\n"
        + "\n".join(refutable) + "\n", encoding="utf-8")
    REALIZABLE.write_text(
        f"# Realizable {scope}; each completion witness verified.\n"
        "# column: the 12 indices as digits.  Made by make_m5_table.py.\n"
        + "\n".join(realizable) + "\n", encoding="utf-8")
    print(f"wrote {len(refutable)} refutable and {len(realizable)} realizable forms")


if __name__ == "__main__":
    main()
