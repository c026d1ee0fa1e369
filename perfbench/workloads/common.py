"""Inputs and independent checks shared by the workloads.

The checks here use numpy and networkx directly, never grammate, so a wrong
answer from the library cannot also be the reference it is judged by.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..harness import FAIL, OK, UNDECIDED

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read_mtxt(name: str) -> np.ndarray:
    """A fixture matrix as an int64 array (first line is the shape)."""
    lines = [ln for ln in (FIXTURES / name).read_text(encoding="utf-8").splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    rows, cols = (int(x) for x in lines[0].split())
    a = np.array([[int(x) for x in ln.split()] for ln in lines[1:]], dtype=np.int64)
    if a.shape != (rows, cols):
        raise ValueError(f"{name}: shape {a.shape} != {(rows, cols)}")
    return a


def fixture_pairs() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The 7x7 rank-1 example pair, the 10x10 same-entries pair and the 2x2
    seed pair, as (A, B) int64 arrays."""
    a2 = read_mtxt("ex_same_entries_A.mtxt")
    return {
        "seed2": (np.array([[0, 1], [1, 0]], dtype=np.int64), np.eye(2, dtype=np.int64)),
        "rank1_7x7": (read_mtxt("ex_rank1_A.mtxt"), read_mtxt("ex_rank1_B.mtxt")),
        "same_entries_10x10": (a2, a2 + read_mtxt("ex_same_entries_E.mtxt")),
    }


def is_gram_pair(a: np.ndarray, b: np.ndarray) -> bool:
    """Distinct (0,1) matrices with equal row and column Gram matrices."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return (
        a.shape == b.shape
        and bool(((a == 0) | (a == 1)).all() and ((b == 0) | (b == 1)).all())
        and bool((a != b).any())
        and bool((a @ a.T == b @ b.T).all() and (a.T @ a == b.T @ b).all())
    )


def witness_ok(p_image, q_image, a: np.ndarray, b: np.ndarray) -> bool:
    """b == P a Q exactly, P and Q given by their images (P e_i = e_image[i])."""
    p = _perm_matrix(p_image)
    q = _perm_matrix(q_image)
    return p is not None and q is not None and bool((p @ a @ q == b).all())


def _perm_matrix(image) -> np.ndarray | None:
    image = [int(i) for i in image]
    if sorted(image) != list(range(len(image))):
        return None
    m = np.zeros((len(image), len(image)), dtype=np.int64)
    m[image, range(len(image))] = 1  # P e_i = e_image[i]
    return m


def relabel(a: np.ndarray, p, q) -> np.ndarray:
    """Row i of a lands at row p[i], column j at column q[j]."""
    out = np.empty_like(a)
    out[np.ix_(p, q)] = a
    return out


class Vf2:
    """networkx VF2 on the bipartite graph of a matrix, with the row and
    column sides coloured apart.  Answers are cached by matrix content.

    Different Weisfeiler-Leman hashes (with the side colours) already prove
    two graphs non-isomorphic, so VF2 runs only when the hashes agree: on
    the composed pairs VF2 alone costs about 0.14 s a pair.
    """

    def __init__(self):
        self._cache: dict[bytes, bool] = {}

    @staticmethod
    def _graph(a: np.ndarray):
        import networkx as nx

        m, n = a.shape
        g = nx.Graph()
        g.add_nodes_from((("r", i) for i in range(m)), side=0)
        g.add_nodes_from((("c", j) for j in range(n)), side=1)
        g.add_edges_from((("r", int(i)), ("c", int(j))) for i, j in zip(*np.nonzero(a)))
        return g

    def isomorphic(self, a: np.ndarray, b: np.ndarray) -> bool:
        a = np.asarray(a, dtype=np.int8)
        b = np.asarray(b, dtype=np.int8)
        key = repr(a.shape).encode() + a.tobytes() + b"|" + b.tobytes()
        hit = self._cache.get(key)
        if hit is None:
            import networkx as nx  # imported here, so it is not charged to set-up

            ga, gb = self._graph(a), self._graph(b)
            wl = nx.weisfeiler_lehman_graph_hash
            if a.shape != b.shape or wl(ga, node_attr="side") != wl(gb, node_attr="side"):
                hit = False
            else:
                gm = nx.algorithms.isomorphism.GraphMatcher(
                    ga, gb, node_match=lambda x, y: x["side"] == y["side"])
                hit = gm.is_isomorphic()
            self._cache[key] = hit
        return hit


def judge_iso(verdict, a, b, vf2: Vf2, must_be_yes: bool = False):
    """(status, message) for an isomorphism verdict on (a, b).

    A yes must carry an exact witness, a no must agree with VF2, and a cap
    hit is undecided.
    """
    kind = type(verdict).__name__
    if kind == "IsoWitness":
        return (OK, "") if witness_ok(verdict.P.image, verdict.Q.image, a, b) else (FAIL, "witness does not map A to B")
    if isinstance(verdict, str) and verdict.startswith("undecided"):
        return UNDECIDED, ""
    if must_be_yes:
        return FAIL, f"said {verdict!r} for a relabelled copy"
    if vf2.isomorphic(a, b):
        return FAIL, f"said {verdict!r} but VF2 finds an isomorphism"
    return OK, ""


def worst(*results):
    """Combine (status, message) results: a failure beats undecided beats ok."""
    order = {FAIL: 2, UNDECIDED: 1, OK: 0}
    return max(results, key=lambda r: order[r[0]])
