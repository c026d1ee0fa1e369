"""cli-mix: a fixed rotation through every subcommand of grammate.cli.run.

Each task is one in-process `cli.run(argv)` on .mtxt files written at
set-up; its exit code is compared with a fixed table and any witness it
prints is re-verified exactly.  The rotation holds usage errors (exit 2),
negative verdicts (exit 3), one cap hit (exit 4), and the two contract
breaks of ROADMAP item 5, which count as failures until they are fixed.

Why: it is the only workload that runs cli, .mtxt parsing and serializing,
gale_ryser.construct_urs, numerics.reconstruct_from_grams and
enumerate_mates_of.  It is many short calls, so per-call overhead dominates.
Each rotation uses its own seeded relabelling of the input pairs.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from ..harness import FAIL, OK, UNDECIDED, Task
from . import common
from .exhaustive import expected_pairs
from .iso_search import _apply, _distinct_sv_pair
from .rank2_audit import read_table

ROTATIONS = 25
ISO_CAP = 100
SUBCOMMANDS = ("verify", "convertible", "classify", "complete", "gram-data", "urs",
               "construct", "isomorphic", "fixable", "enumerate", "mates-of", "reconstruct")

# ROADMAP item 5: contract breaks the rotation keeps until they are fixed
DEFECT_RECONSTRUCT = "reconstruct with a non-integer Gram entry raises instead of exit 2"
DEFECT_GRAM_DATA = "gram-data exits 0 on the non-realizable M4 form that classify rejects"

M4_NOT_REALIZABLE = np.array([[1, -1, 0, 0], [0, 0, 1, -1], [-1, 1, -1, 1],
                              [1, -1, -1, 1], [-1, 1, 1, -1]])
M5_REALIZABLE = {n: 1 for n in "klpqrsabcdef"}


def mtxt(a) -> str:
    a = np.asarray(a)
    return f"{a.shape[0]} {a.shape[1]}\n" + "".join(" ".join(str(int(x)) for x in r) + "\n" for r in a)


def read_matrices(text: str) -> list[np.ndarray]:
    """Every matrix printed in .mtxt form, in order; other lines are skipped."""
    lines = text.splitlines()
    out, i = [], 0
    while i < len(lines):
        head = lines[i].split()
        if len(head) == 2 and all(h.isdigit() for h in head):
            r, c = int(head[0]), int(head[1])
            rows = [ln.split() for ln in lines[i + 1:i + 1 + r]]
            if len(rows) == r and all(len(x) == c for x in rows):
                out.append(np.array(rows, dtype=np.int64))
                i += 1 + r
                continue
        i += 1
    return out


def _m5_E(idx: dict[str, int]) -> np.ndarray:
    """The canonical M5 difference matrix for group sizes idx, in numpy."""
    cols = (("a", "b", "c", "d", "e", "f"),
            ((1, -1, 1, -1, 0, 0), (1, -1, 0, 0, 1, -1), (0, 0, 1, -1, -1, 1)))
    rows = []
    for (plus, minus), pat in zip((("k", "l"), ("p", "q"), ("r", "s")), cols[1]):
        for name, sign in ((plus, 1), (minus, -1)):
            row = np.concatenate([np.full(idx[c], sign * s) for c, s in zip(cols[0], pat)])
            rows += [row] * idx[name]
    return np.array(rows, dtype=np.int64)


class Workload:
    name = "cli-mix"

    def __init__(self, seed: int, workdir):
        from grammate import cli

        self._cli = cli  # the module, not cli.run: the tracer rebinds module attributes
        self.dir = workdir / "cli-mix"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.vf2 = common.Vf2()
        rng = np.random.default_rng(seed)
        fx = common.fixture_pairs()
        self.arrays: dict[str, np.ndarray] = {}

        def put(name: str, a) -> str:
            path = self.dir / name
            path.write_text(a if isinstance(a, str) else mtxt(a), encoding="utf-8")
            if not isinstance(a, str):
                self.arrays[str(path)] = np.asarray(a, dtype=np.int64)
            return str(path)

        a1, b1 = fx["rank1_7x7"]
        e1 = common.read_mtxt("ex_rank1_E.mtxt")
        self.fixture_mate = b1
        hard_a, hard_b = _apply("kron-swap", a1, b1, None)
        table = [code for codes in read_table().values() for code in codes]
        g = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        shared = {
            "A1raw": put("A1raw.mtxt", a1),
            "I4": put("I4.mtxt", np.eye(4, dtype=np.int64)),
            "HA": put("HA.mtxt", hard_a), "HB": put("HB.mtxt", hard_b),
            "M4no": put("M4no.mtxt", M4_NOT_REALIZABLE),
            "M5ok": put("M5ok.mtxt", _m5_E(M5_REALIZABLE)),
            "GR": put("GR.mtxt", g @ g.T), "GC": put("GC.mtxt", g.T @ g),
            "GC2": put("GC2.mtxt", np.diag([3, 2, 1])),
            "GRfrac": put("GRfrac.mtxt", "3 3\n2 1 0\n1 2.5 1\n0 1 1\n"),
            "bad": put("bad.mtxt", "2 2\n1 0\n"),
            "missing": str(self.dir / "missing.mtxt"),
        }
        self.gram_source = g
        self.enum_34 = len(expected_pairs(3, 4))
        self.enum_23 = len(expected_pairs(2, 3))

        self.round: list[Task] = []
        for v in range(ROTATIONS):
            f = dict(shared)

            def pair(tag, a, b):
                p, q = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
                f[tag + "A"] = put(f"{tag}A_{v}.mtxt", common.relabel(a, p, q))
                f[tag + "B"] = put(f"{tag}B_{v}.mtxt", common.relabel(b, p, q))

            pair("R", a1, b1)
            pair("S", *fx["same_entries_10x10"])
            pair("T", *fx["seed2"])
            da, db = _distinct_sv_pair(rng, int(rng.integers(5, 9)))
            pair("D", da, db)
            p, q = rng.permutation(7), rng.permutation(7)
            f["E1"] = put(f"E1_{v}.mtxt", common.relabel(e1, p, q))
            f["NM"] = put(f"NM_{v}.mtxt", 1 - self.arrays[f["RA"]])
            f["M5no"] = put(f"M5no_{v}.mtxt", _m5_E({n: int(c) for n, c in
                                                     zip("klpqrsabcdef", table[rng.integers(len(table))])}))
            u = rng.integers(0, 2, size=(int(rng.integers(4, 8)), int(rng.integers(4, 8))))
            rows, cols = ",".join(map(str, u.sum(1))), ",".join(map(str, u.sum(0)))
            sa, sb = self.arrays[f["SA"]], self.arrays[f["SB"]]
            convertible = {0} if not ((sa + sb) @ (sa - sb).T).any() else {3}
            t = self._task
            rotation = [
                t(["verify", f["RA"], f["RB"]], {0}, "mates"),
                t(["verify", f["RA"], f["NM"]], {3}),
                t(["verify", "--json", f["SA"], f["SB"]], {0}, "json-mates"),
                t(["convertible", f["RA"], f["RB"]], {0}),
                t(["convertible", "--json", f["SA"], f["SB"]], convertible),
                t(["classify", f["E1"]], {0}),
                t(["classify", "--json", f["M5ok"]], {0}, "json-realizable"),
                t(["classify", f["M5no"]], {3}),
                t(["classify", f["M4no"]], {3}),
                t(["complete", f["E1"]], {0}, "witness"),
                t(["complete", f["M5ok"]], {0}, "witness"),
                t(["complete", f["M5no"]], {3}),
                t(["gram-data", f["E1"]], {0}, "gram-values"),
                t(["gram-data", "--json", f["M4no"]], {3}, defect=DEFECT_GRAM_DATA),
                t(["urs", "--rows", rows, "--cols", cols], {0}, "urs"),
                t(["urs", "--rows", rows, "--cols", cols + ",1"], {3}),
                t(["urs", "--rows", "x,y", "--cols", cols], {2}),
                t(["construct", "--op", "complement", f["RA"], f["RB"]], {0}, "construct"),
                t(["construct", "--op", "kron-swap", f["TA"], f["TB"]], {0}, "construct"),
                t(["construct", "--op", "dirsum", f["TA"], f["TB"], f["RA"], f["RB"]], {0}, "construct"),
                t(["construct", "--op", "join", f["TA"], f["TB"], f["TA"], f["TB"]], {0}, "construct"),
                t(["construct", "--op", "kron", f["TA"], f["TB"], f["TA"], f["TB"]], {0}, "construct"),
                t(["construct", "--op", "block-swap", f["TA"], f["TB"]], {0}, "construct"),
                t(["construct", "--op", "dirsum", f["TA"], f["TB"]], {2}),
                t(["isomorphic", f["SA"], f["SB"]], {0}, "iso"),
                t(["isomorphic", f["RA"], f["RB"]], {3}, "iso"),
                t(["isomorphic", "--cap", str(ISO_CAP), f["HA"], f["HB"]], {0, 3, 4}, "iso"),
                t(["isomorphic", "--distinct-sv", f["DA"], f["DB"]], {0, 3}, "iso"),
                t(["fixable", f["RA"], f["RB"]], {3}),
                t(["fixable", f["SA"], f["SB"]], {0}),
                t(["enumerate", "3", "4"], {0}, "enumerate"),
                t(["enumerate", "2", "3", "--json"], {0}, "enumerate-json"),
                t(["mates-of", f["A1raw"]], {0}, "mates-of"),
                t(["mates-of", f["I4"]], {0}, "mates-of"),
                t(["reconstruct", "--grow", f["GR"], "--gcol", f["GC"]], {0}, "reconstruct"),
                t(["reconstruct", "--grow", f["GR"], "--gcol", f["GC2"]], {3}),
                t(["reconstruct", "--grow", f["GRfrac"], "--gcol", f["GC"]], {2}, defect=DEFECT_RECONSTRUCT),
                t(["classify", f["bad"]], {2}),
                t(["verify", f["missing"], f["RA"]], {2}),
                t(["frobnicate"], {2}),
                t(["verify"], {2}),
            ]
            self.round += [rotation[i] for i in rng.permutation(len(rotation))]

    @staticmethod
    def _task(argv, want, check=None, defect=None) -> Task:
        """A cli.run call, its allowed exit codes, and the output check to run
        on exit 0 (and on a no from isomorphic)."""
        label = "cli." + (argv[0] if argv[0] in SUBCOMMANDS and len(argv) > 1 else "usage")
        return Task(label, "grammate " + " ".join(argv),
                    {"argv": argv, "want": frozenset(want), "check": check}, known_defect=defect)

    def tasks(self) -> list[Task]:
        return self.round

    def warmup(self) -> list[Task]:
        seen, out = set(), []
        for t in self.round:
            if t.label not in seen and t.payload["argv"][:1] not in (["mates-of"], ["enumerate"]):
                seen.add(t.label)
                out.append(t)
        return out

    def run(self, task: Task):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.run(task.payload["argv"])
        return code, out.getvalue(), err.getvalue()

    # -- checks --------------------------------------------------------------

    def check(self, task: Task, out):
        code, stdout, stderr = out
        d = task.payload
        if code not in d["want"]:
            return FAIL, f"exit {code}, expected {sorted(d['want'])}"
        if "Traceback" in stdout + stderr:
            return FAIL, "printed a traceback"
        if code == 4:
            return UNDECIDED, ""
        if d["check"] is None or code != 0 and d["check"] != "iso":
            return OK, ""
        return getattr(self, "_check_" + d["check"].replace("-", "_"))(d["argv"], stdout)

    def _arr(self, path: str) -> np.ndarray:
        return self.arrays[path]

    def _check_mates(self, argv, stdout):
        ok = common.is_gram_pair(self._arr(argv[1]), self._arr(argv[2]))
        return (OK, "") if ok and "Gram mates" in stdout else (FAIL, "verify said mates wrongly")

    def _check_json_mates(self, argv, stdout):
        doc = json.loads(stdout)
        ok = doc.get("schema") == 1 and doc["mates"] is True and \
            common.is_gram_pair(self._arr(argv[2]), self._arr(argv[3]))
        return (OK, "") if ok else (FAIL, f"verify --json said {doc}")

    def _check_json_realizable(self, argv, stdout):
        doc = json.loads(stdout)
        return (OK, "") if doc.get("realizable") is True else (FAIL, f"classify said {doc}")

    def _check_witness(self, argv, stdout):
        mats = read_matrices(stdout)
        e = self._arr(argv[1])
        if len(mats) != 1 or not common.is_gram_pair(mats[0], mats[0] + e):
            return FAIL, "complete printed no valid witness"
        return OK, ""

    def _check_gram_values(self, argv, stdout):
        line = next((ln for ln in stdout.splitlines() if ln.startswith("gram singular values:")), "")
        got = sorted(float(x) for x in line.split(":", 1)[1].split()) if line else []
        sv = np.linalg.svd(self._arr(argv[1]) / 2.0, compute_uv=False)
        want = sorted(float(s) for s in sv if s > 1e-9)
        if len(got) != len(want) or any(abs(x - y) > 1e-8 for x, y in zip(got, want)):
            return FAIL, f"gram values {got}, expected {want}"
        return OK, ""

    def _check_urs(self, argv, stdout):
        mats = read_matrices(stdout)
        rows = [int(x) for x in argv[2].split(",")]
        cols = [int(x) for x in argv[4].split(",")]
        if len(mats) != 1 or mats[0].sum(1).tolist() != rows or mats[0].sum(0).tolist() != cols:
            return FAIL, "urs matrix has the wrong sums"
        return OK, ""

    def _check_construct(self, argv, stdout):
        op, files = argv[2], [self._arr(p) for p in argv[3:]]
        if op == "block-swap":
            want = _apply("block-swap", files[0], files[1], None)
        else:
            want = _apply(op, files[0], files[1], (files[2], files[3]) if len(files) == 4 else None)
        mats = read_matrices(stdout)
        if len(mats) != 2 or not all(m.shape == w.shape and (m == w).all() for m, w in zip(mats, want)):
            return FAIL, "construct printed the wrong pair"
        return OK, ""

    def _check_iso(self, argv, stdout):
        paths = [p for p in argv[1:] if p.endswith(".mtxt")]
        a, b = self._arr(paths[0]), self._arr(paths[1])
        if stdout.startswith("isomorphic"):
            lines = stdout.splitlines()
            p = [int(x) for x in lines[1].split(":")[1].split()]
            q = [int(x) for x in lines[2].split(":")[1].split()]
            return (OK, "") if common.witness_ok(p, q, a, b) else (FAIL, "witness does not map A to B")
        if stdout.startswith("non-isomorphic") and self.vf2.isomorphic(a, b):
            return FAIL, "said non-isomorphic but VF2 finds an isomorphism"
        return OK, ""

    def _check_enumerate(self, argv, stdout):
        mats = read_matrices(stdout)
        pairs = list(zip(mats[0::2], mats[1::2]))
        if f"pairs: {self.enum_34}" not in stdout or len(pairs) != self.enum_34 or \
                not all(common.is_gram_pair(a, b) for a, b in pairs):
            return FAIL, "enumerate 3 4 printed the wrong pairs"
        return OK, ""

    def _check_enumerate_json(self, argv, stdout):
        doc = json.loads(stdout)
        pairs = [(np.array(p["A"]), np.array(p["B"])) for p in doc["pairs"]]
        if doc["count"] != self.enum_23 or len(pairs) != self.enum_23 or \
                not all(common.is_gram_pair(a, b) for a, b in pairs):
            return FAIL, "enumerate 2 3 --json printed the wrong pairs"
        return OK, ""

    def _check_mates_of(self, argv, stdout):
        a = self._arr(argv[1])
        mates = read_matrices(stdout)
        n = int(stdout.split("\n", 1)[0].split(":")[1])
        if n != len(mates) or not all(common.is_gram_pair(a, b) for b in mates):
            return FAIL, "mates-of printed an invalid mate"
        if a.shape == (4, 4) and n != 23:
            return FAIL, f"I4 has 23 mates, got {n}"
        b1 = self.fixture_mate
        if a.shape == b1.shape and not any((m == b1).all() for m in mates):
            return FAIL, "mates-of missed the fixture's own mate"
        return OK, ""

    def _check_reconstruct(self, argv, stdout):
        g = self.gram_source
        mats = read_matrices(stdout)
        if not any(m.shape == g.shape and (m == g).all() for m in mats) or not all(
                (m @ m.T == g @ g.T).all() and (m.T @ m == g.T @ g).all() for m in mats):
            return FAIL, "reconstruct missed the source matrix or printed a wrong one"
        return OK, ""
