import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grammate import oracle
from grammate.cli import build_parser, run
from grammate.matrix_core import BinaryMatrix, load_matrix, save_matrix, serialize_matrix
from grammate.oracle import enumerate_gram_pairs
from grammate.rank_forms import canonical_rank2_E, classify_rank2, rank2_complete, rank2_realizable

FIX = Path(__file__).parent / "fixtures"
A7 = str(FIX / "ex_rank1_A.mtxt")
B7 = str(FIX / "ex_rank1_B.mtxt")
E7 = str(FIX / "ex_rank1_E.mtxt")
A10 = str(FIX / "ex_same_entries_A.mtxt")
E10 = str(FIX / "ex_same_entries_E.mtxt")
A6 = str(FIX / "ex_rank1_6x6_A.mtxt")
B6 = str(FIX / "ex_rank1_6x6_B.mtxt")


def cli(capsys, *args):
    code = run(list(args))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def b10(tmp_path):
    A = load_matrix(A10)
    E = load_matrix(E10)
    B = BinaryMatrix((A.int64() + E.int64()).astype(np.int8))
    p = tmp_path / "B10.mtxt"
    save_matrix(B, p)
    return str(p)


@pytest.fixture
def i2(tmp_path):
    p = tmp_path / "I2.mtxt"
    save_matrix(BinaryMatrix.identity(2), p)
    return str(p)


@pytest.fixture
def x2(tmp_path):
    p = tmp_path / "X2.mtxt"
    save_matrix(BinaryMatrix(np.array([[0, 1], [1, 0]], dtype=np.int8)), p)
    return str(p)


class TestVerify:
    def test_mates(self, capsys):
        assert cli(capsys, "verify", A7, B7) == (0, "Gram mates (difference rank 1)\n")

    def test_equal_is_negative(self, capsys, i2):
        assert cli(capsys, "verify", i2, i2) == (3, "not Gram mates\n")

    def test_json(self, capsys):
        code, out = cli(capsys, "verify", A7, B7, "--json")
        assert code == 0
        assert json.loads(out) == {"schema": 1, "command": "verify",
                                   "mates": True, "diff_rank": 1}

    def test_missing_file(self, capsys):
        assert run(["verify", A7, "/nonexistent.mtxt"]) == 2


class TestConvertible:
    def test_full_report(self, capsys):
        code, out = cli(capsys, "convertible", A7, B7)
        assert code == 0
        assert out == (
            "convertible: yes\n"
            "  sum_times_diffT_zero     yes\n"
            "  diffT_times_sum_zero     yes\n"
            "  sign_flip_recovers_mate  yes\n"
            "  right_vectors_null       yes\n"
            "  left_vectors_null        yes\n"
            "  A_diffT_symmetric        yes\n"
            "  AT_diff_symmetric        yes\n"
            "gram singular values: 2\n"
        )

    def test_json_schema(self, capsys):
        code, out = cli(capsys, "convertible", A7, B7, "--json")
        data = json.loads(out)
        assert code == 0 and data["schema"] == 1 and data["convertible"] is True
        assert len(data["checks"]) == 7

    def test_not_mates_is_usage_error(self, capsys, i2):
        assert run(["convertible", i2, i2]) == 2

    # the tolerance is a constant: any --tol is an unknown option
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_is_usage_error(self, capsys, x2, i2, tol):
        assert run(["convertible", "--tol", tol, x2, i2]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol" in err and "Traceback" not in err

    def test_tol_above_ceiling_is_usage_error(self, capsys, tmp_path):
        # I3 and the 3-cycle are mates that do not convert; at --tol 10 every
        # numeric check passed against the integer "no" and the run crashed
        i3, p3 = tmp_path / "I3.mtxt", tmp_path / "P3.mtxt"
        save_matrix(BinaryMatrix.identity(3), i3)
        save_matrix(BinaryMatrix(np.roll(np.eye(3, dtype=np.int8), 1, axis=1)), p3)
        assert run(["convertible", "--tol", "10", str(i3), str(p3)]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tol" in err and "Traceback" not in err
        assert cli(capsys, "convertible", str(i3), str(p3))[0] == 3


class TestClassify:
    def test_rank1(self, capsys):
        assert cli(capsys, "classify", E7) == (0, "rank 1, k1=2 k2=2, realizable\n")

    def test_rank1_json(self, capsys):
        code, out = cli(capsys, "classify", "--json", E7)
        assert code == 0
        assert json.loads(out) == {"schema": 1, "command": "classify", "rank": 1,
                                   "indices": {"k1": 2, "k2": 2}, "realizable": True}

    def test_rank2(self, capsys, tmp_path):
        E = canonical_rank2_E("M4", dict(k=1, l=1, a=1, b=0, c=1, d=2, e=2, f=0, g=1, h=1))
        p = tmp_path / "E.mtxt"
        save_matrix(E, p)
        code, out = cli(capsys, "classify", str(p))
        assert code == 0
        assert out == "rank 2, M4, k=1 l=1 a=1 b=0 c=1 d=2 e=2 f=0 g=1 h=1, realizable\n"

    def test_not_realizable(self, capsys, tmp_path):
        E = canonical_rank2_E("M4", dict(k=1, l=1, a=1, b=0, c=0, d=0, e=0, f=1, g=0, h=1))
        p = tmp_path / "E.mtxt"
        save_matrix(E, p)
        code, out = cli(capsys, "classify", str(p))
        assert code == 3 and out.endswith("not realizable\n")

    def test_rank3_unclassified(self, capsys, tmp_path):
        circ = np.array([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [-1, 0, 0, 1]], dtype=np.int8)
        from grammate.matrix_core import SignedMatrix
        p = tmp_path / "E.mtxt"
        save_matrix(SignedMatrix(circ), p)
        assert cli(capsys, "classify", str(p)) == (3, "rank 3, no canonical form\n")


class TestComplete:
    def test_rank1_witness(self, capsys):
        code, out = cli(capsys, "complete", E7)
        assert code == 0
        assert out == (
            "7 7\n"
            "0 0 1 1 0 0 0\n"
            "0 0 1 1 0 0 0\n"
            "1 1 0 0 0 0 0\n"
            "1 1 0 0 0 0 0\n"
            "0 0 0 0 0 0 0\n"
            "0 0 0 0 0 0 0\n"
            "0 0 0 0 0 0 0\n"
        )

    def test_failed_internal_check_propagates(self, unverified_fill):
        # a RuntimeError is a library bug, not an input error: no exit code
        with pytest.raises(RuntimeError, match="failed Gram verification"):
            run(["complete", E7])

    def test_out_file_verifies(self, capsys, tmp_path):
        dest = tmp_path / "A.mtxt"
        code, out = cli(capsys, "complete", E7, "--out", str(dest))
        assert code == 0 and out == ""
        A = load_matrix(dest)
        E = load_matrix(E7)
        assert run(["verify", str(dest), _save_sum(tmp_path, A, E)]) == 0

    def test_not_realizable(self, capsys, tmp_path):
        E = canonical_rank2_E("M4", dict(k=1, l=1, a=1, b=0, c=0, d=0, e=0, f=1, g=0, h=1))
        p = tmp_path / "E.mtxt"
        save_matrix(E, p)
        assert cli(capsys, "complete", str(p)) == (3, "not realizable\n")


# an M2 form and a witness of it whose pair is not convertible
_M2_E = canonical_rank2_E("M2", dict(k=1, l=1, e=1, f=1, g=1, h=1))
_M2_OTHER_WITNESS = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0]], dtype=np.int8)


def _save_sum(tmp_path, A, E):
    B = BinaryMatrix((A.int64() + E.int64()).astype(np.int8))
    p = tmp_path / "B.mtxt"
    save_matrix(B, p)
    return str(p)


class TestGramData:
    def test_rank1(self, capsys):
        assert cli(capsys, "gram-data", E7) == (
            0, "gram singular values: 2\nsource: closed_form_rank1\n")

    def test_m4_closed_form(self, capsys, tmp_path):
        E = canonical_rank2_E("M4", dict(k=1, l=1, a=1, b=0, c=1, d=2, e=2, f=0, g=1, h=1))
        p = tmp_path / "E.mtxt"
        save_matrix(E, p)
        assert cli(capsys, "gram-data", str(p)) == (
            0, "gram singular values: 2 1.41421356237\nsource: closed_form_rank2\n")

    def _m5(self, tmp_path, idx):
        E = canonical_rank2_E("M5", idx)
        pe = tmp_path / "E.mtxt"
        save_matrix(E, pe)
        pa = tmp_path / "A.mtxt"
        save_matrix(rank2_complete(classify_rank2(E)), pa)
        return str(pe), str(pa)

    def test_m5_needs_witness(self, tmp_path):
        pe, _ = self._m5(tmp_path, dict(k=1, l=1, p=1, q=1, r=1, s=1,
                                        a=1, b=1, c=1, d=1, e=1, f=1))
        assert run(["gram-data", pe]) == 2

    def test_m5_with_witness(self, capsys, tmp_path):
        pe, pa = self._m5(tmp_path, dict(k=1, l=1, p=1, q=1, r=1, s=1,
                                         a=1, b=1, c=1, d=1, e=1, f=1))
        assert cli(capsys, "gram-data", pe, "--witness", pa) == (
            0, "gram singular values: 1.73205080757 1.73205080757\n"
               "source: closed_form_rank2\n")

    def test_m5_odd_not_convertible(self, capsys, tmp_path):
        pe, pa = self._m5(tmp_path, dict(k=2, l=1, p=3, q=4, r=3, s=4,
                                         a=4, b=3, c=3, d=4, e=1, f=2))
        assert cli(capsys, "gram-data", pe, "--witness", pa) == (3, "not convertible\n")

    def test_rank1_with_witness(self, capsys):
        assert cli(capsys, "gram-data", E7, "--witness", A7) == (
            0, "gram singular values: 2\nsource: closed_form_rank1\n")

    @pytest.mark.parametrize("witness, expected", [
        (_M2_OTHER_WITNESS, (3, "not convertible\n")),
        (np.zeros((4, 4), dtype=np.int8), (3, "witness rejected\n")),
    ], ids=["not-convertible", "not-a-witness"])
    def test_m2_witness_is_checked(self, capsys, tmp_path, witness, expected):
        # the closed form describes convertible pairs only; the first witness
        # gives a Gram pair that is not convertible, the second no Gram pair
        pe, pw = tmp_path / "E.mtxt", tmp_path / "W.mtxt"
        save_matrix(_M2_E, pe)
        save_matrix(BinaryMatrix(witness), pw)
        assert cli(capsys, "gram-data", str(pe), "--witness", str(pw)) == expected

    def test_witness_of_another_shape(self, capsys, i2):
        assert run(["gram-data", E7, "--witness", i2]) == 2
        assert capsys.readouterr() == ("", "error: witness and E differ in shape\n")

    def test_not_realizable_agrees_with_classify(self, capsys, tmp_path):
        # an M4 form with a=0 whose e-f and g-h parities rule out a witness
        p = tmp_path / "E.mtxt"
        p.write_text("5 4\n1 -1 0 0\n0 0 1 -1\n-1 1 -1 1\n1 -1 -1 1\n-1 1 1 -1\n")
        for argv in (["classify"], ["complete"], ["gram-data"], ["gram-data", "--json"]):
            code, out = cli(capsys, *argv, str(p))
            assert code == 3 and out.endswith("not realizable\n"), argv


class TestUrs:
    def test_feasible(self, capsys):
        code, out = cli(capsys, "urs", "--rows", "3,3,0,2,3", "--cols", "3,3,3,2")
        assert code == 0
        assert out == (
            "5 4\n"
            "1 1 1 0\n"
            "1 1 1 0\n"
            "0 0 0 0\n"
            "0 1 0 1\n"
            "1 0 1 1\n"
        )

    def test_infeasible(self, capsys):
        assert cli(capsys, "urs", "--rows", "3,3", "--cols", "1,1") == (3, "infeasible\n")

    @pytest.mark.parametrize("rows,cols", [("1", "-1"), ("-2", "0"), ("", ""), ("1", ""), (" ", "0")])
    def test_negative_or_empty_sums_are_usage_errors(self, capsys, rows, cols):
        assert run(["urs", "--rows", rows, "--cols", cols]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: row and column sums must be non-")


class TestConstruct:
    def test_complement(self, capsys, x2, i2):
        code, out = cli(capsys, "construct", "--op", "complement", x2, i2)
        assert code == 0
        assert out == "2 2\n1 0\n0 1\n\n2 2\n0 1\n1 0\n"

    def test_out_prefix(self, capsys, tmp_path, x2, i2):
        prefix = str(tmp_path / "ds")
        code, out = cli(capsys, "construct", "--op", "dirsum", x2, i2, x2, i2,
                        "--out-prefix", prefix)
        assert code == 0 and out == ""
        assert run(["verify", prefix + "_A.mtxt", prefix + "_B.mtxt"]) == 0

    def test_block_swap(self, capsys, x2, i2):
        code, out = cli(capsys, "construct", "--op", "block-swap", x2, i2)
        assert code == 0
        assert out.startswith("4 4\n")

    def test_kron_and_join_verify(self, tmp_path, capsys, x2, i2):
        for op in ("kron", "join"):
            prefix = str(tmp_path / op)
            assert run(["construct", "--op", op, x2, i2, x2, i2,
                        "--out-prefix", prefix]) == 0
            assert run(["verify", prefix + "_A.mtxt", prefix + "_B.mtxt"]) == 0
        capsys.readouterr()

    def test_kron_swap(self, capsys, x2, i2):
        code, out = cli(capsys, "construct", "--op", "kron-swap", x2, i2)
        assert code == 0
        assert out == ("4 4\n0 0 1 0\n0 0 0 1\n1 0 0 0\n0 1 0 0\n\n"
                       "4 4\n0 1 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\n")

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_input_pair_not_mates(self, capsys, x2, i2, which):
        files = [i2, i2, x2, i2] if which == "first" else [x2, i2, i2, i2]
        assert run(["construct", "--op", "dirsum", *files]) == 2
        assert capsys.readouterr() == ("", f"error: {which} input pair is not Gram mates\n")

    def test_equal_blocks_usage_error(self, i2):
        assert run(["construct", "--op", "block-swap", i2, i2]) == 2

    def test_wrong_arity(self, i2, x2):
        assert run(["construct", "--op", "dirsum", i2, x2]) == 2


class TestIsomorphic:
    def test_negative(self, capsys):
        assert cli(capsys, "isomorphic", A7, B7) == (3, "non-isomorphic\n")

    def test_negative_6x6(self, capsys):
        assert cli(capsys, "isomorphic", A6, B6) == (3, "non-isomorphic\n")

    def test_witness(self, capsys, b10):
        code, out = cli(capsys, "isomorphic", A10, b10)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "isomorphic"
        assert lines[1].startswith("P: ") and lines[2].startswith("Q: ")

    def test_cap_undecided(self, capsys, b10):
        assert cli(capsys, "isomorphic", A10, b10, "--cap", "1") == (4, "undecided (cap)\n")

    def test_distinct_sv_requires_distinct(self, b10):
        # the 10x10 pair has a repeated singular value
        assert run(["isomorphic", A10, b10, "--distinct-sv"]) == 2

    # the separation tolerance is a constant: any --rel-tol is an unknown option
    @pytest.mark.parametrize("rel_tol", ["0", "-1", "nan"])
    def test_bad_rel_tol_is_usage_error(self, capsys, x2, i2, rel_tol):
        assert run(["isomorphic", x2, i2, "--distinct-sv", "--rel-tol", rel_tol]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --rel-tol" in err and "Traceback" not in err


class TestFixable:
    def test_not_fixable(self, capsys):
        assert cli(capsys, "fixable", A7, B7) == (3, "not fixable\n")

    def test_not_fixable_6x6(self, capsys):
        assert cli(capsys, "fixable", A6, B6) == (3, "not fixable\n")

    def test_fixable(self, capsys, b10):
        assert cli(capsys, "fixable", A10, b10) == (0, "fixable\n")

    def test_not_mates(self, i2):
        assert run(["fixable", i2, i2]) == 2

    def test_rank2_pair_is_usage_error(self, capsys, tmp_path):
        # I3 and the 3-cycle are mates whose difference has rank 2
        i3, p3 = tmp_path / "I3.mtxt", tmp_path / "P3.mtxt"
        save_matrix(BinaryMatrix.identity(3), i3)
        save_matrix(BinaryMatrix(np.roll(np.eye(3, dtype=np.int8), 1, axis=1)), p3)
        assert run(["fixable", str(i3), str(p3)]) == 2
        assert capsys.readouterr() == ("", "error: the difference has rank 2, not 1\n")

    def test_cap_undecided(self, capsys, b10):
        assert cli(capsys, "fixable", A10, b10, "--cap", "1") == (4, "undecided (cap)\n")


class TestEnumerate:
    def test_2x2_text(self, capsys):
        code, out = cli(capsys, "enumerate", "2", "2")
        assert code == 0
        assert out == (
            "pairs: 1\n"
            "pair 0 (difference rank 1):\n"
            "2 2\n0 1\n1 0\n"
            "2 2\n1 0\n0 1\n"
        )

    def test_json(self, capsys):
        code, out = cli(capsys, "enumerate", "2", "2", "--json")
        data = json.loads(out)
        assert code == 0 and data["count"] == 1
        assert data["pairs"][0]["A"] == [[0, 1], [1, 0]]

    def test_cap(self, capsys):
        for m, n in [("5", "6"), ("5", "5"), ("25", "1")]:
            assert run(["enumerate", m, n]) == 4

    @pytest.mark.parametrize("m,n", [("0", "3"), ("3", "-1"), ("-2", "-2")])
    def test_nonpositive_dimensions_are_usage_errors(self, capsys, m, n):
        assert run(["enumerate", m, n]) == 2
        assert capsys.readouterr() == ("", "error: dimensions must be positive\n")

    @pytest.mark.parametrize("argv", [["--rowsums", "9,9"], ["--rowsums", "1"],
                                      ["--colsums", "1,1,1"], ["--rank", "4"],
                                      ["--rowsums", ""], ["--colsums", ""]])
    def test_no_pairs(self, capsys, argv):
        assert cli(capsys, "enumerate", "2", "2", *argv) == (0, "pairs: 0\n")
        code, out = cli(capsys, "enumerate", "2", "2", *argv, "--json")
        assert code == 0 and json.loads(out) == {"schema": 1, "command": "enumerate",
                                                 "count": 0, "pairs": []}

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 4) for n in range(1, 5)])
    def test_output_is_the_library_pairs(self, capsys, m, n):
        # byte for byte the text and JSON built from GramPair objects
        pairs = enumerate_gram_pairs(m, n)
        for rank in (None, 0, 1, 2, 3):
            chosen = [p for p in pairs if rank is None or p.diff_rank == rank]
            text = f"pairs: {len(chosen)}\n" + "".join(
                f"pair {i} (difference rank {p.diff_rank}):\n"
                + serialize_matrix(p.A) + serialize_matrix(p.B) for i, p in enumerate(chosen))
            doc = json.dumps({"schema": 1, "command": "enumerate", "count": len(chosen),
                              "pairs": [{"A": p.A.int64().tolist(), "B": p.B.int64().tolist(),
                                         "diff_rank": p.diff_rank} for p in chosen]}) + "\n"
            argv = ["enumerate", str(m), str(n)] + ([] if rank is None else ["--rank", str(rank)])
            assert cli(capsys, *argv) == (0, text)
            assert cli(capsys, *argv, "--json") == (0, doc)


class TestMatesOf:
    def test_i2(self, capsys, i2):
        assert cli(capsys, "mates-of", i2) == (0, "mates: 1\n2 2\n0 1\n1 0\n")

    def test_none(self, capsys, tmp_path):
        p = tmp_path / "J3.mtxt"
        save_matrix(BinaryMatrix.ones(3, 3), p)
        assert cli(capsys, "mates-of", str(p)) == (3, "mates: 0\n")

    def test_same_entries_example(self, capsys, b10):
        # the column-sum bounds alone passed the 10^7-node cap here
        code, out = cli(capsys, "mates-of", A10)
        assert code == 0 and out.startswith("mates: 7\n")
        assert Path(b10).read_text() in out  # A + E


class TestReconstruct:
    @staticmethod
    def _gram(tmp_path, name, g):
        p = tmp_path / name
        text = f"{g.shape[0]} {g.shape[1]}\n" + "\n".join(
            " ".join(str(int(x)) for x in row) for row in g) + "\n"
        p.write_text(text)
        return str(p)

    def test_recovers(self, capsys, tmp_path):
        a = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        gr = self._gram(tmp_path, "gr.mtxt", a @ a.T)
        gc = self._gram(tmp_path, "gc.mtxt", a.T @ a)
        code, out = cli(capsys, "reconstruct", "--grow", gr, "--gcol", gc)
        assert code == 0
        assert out == "3 3\n1 1 0\n0 1 0\n0 0 1\n"

    def test_mismatched_spectra(self, capsys, tmp_path):
        a = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        gr = self._gram(tmp_path, "gr.mtxt", a @ a.T)
        gc = self._gram(tmp_path, "gc.mtxt", 2 * (a.T @ a))
        assert cli(capsys, "reconstruct", "--grow", gr, "--gcol", gc) == (3, "none\n")

    def test_identity_gram_gives_both_matrices(self, capsys, tmp_path):
        # the eigenvalue 1 is repeated, and I2 and P2 are both answers
        g = self._gram(tmp_path, "g.mtxt", np.eye(2, dtype=int))
        assert cli(capsys, "reconstruct", "--grow", g, "--gcol", g) == (
            0, "2 2\n0 1\n1 0\n\n2 2\n1 0\n0 1\n")

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "2"])
    def test_identity_gram_is_usage_error_at_any_tol(self, capsys, tmp_path, tol):
        # --tol is no longer an option
        g = self._gram(tmp_path, "g.mtxt", np.eye(2, dtype=int))
        assert run(["reconstruct", "--grow", g, "--gcol", g, "--tol", tol]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("g_row, g_col", [
        ([[3]], [[1, 0], [0, 1]]),
        ([[-1]], [[-1]]),
    ], ids=["row-sum-above-n", "negative-diagonal"])
    def test_grams_no_matrix_has(self, capsys, tmp_path, g_row, g_col):
        gr = self._gram(tmp_path, "gr.mtxt", np.array(g_row))
        gc = self._gram(tmp_path, "gc.mtxt", np.array(g_col))
        assert run(["reconstruct", "--grow", gr, "--gcol", gc]) == 3
        assert capsys.readouterr() == ("none\n", "")

    def test_cap_is_undecided(self, capsys, tmp_path, monkeypatch):
        # the 7x7 example's Grams cost 1,477 nodes; the cap is read per call
        monkeypatch.setattr(oracle, "DEFAULT_MATE_NODE_CAP", 1476)
        a = load_matrix(A7).int64()
        gr = self._gram(tmp_path, "gr.mtxt", a @ a.T)
        gc = self._gram(tmp_path, "gc.mtxt", a.T @ a)
        assert cli(capsys, "reconstruct", "--grow", gr, "--gcol", gc) == (
            4, "Gram search exceeded the node cap\n")
        monkeypatch.setattr(oracle, "DEFAULT_MATE_NODE_CAP", 1477)
        code, out = cli(capsys, "reconstruct", "--grow", gr, "--gcol", gc)
        assert code == 0 and out.count("7 7\n") == 2

    @pytest.mark.parametrize("text", ["3 3\n2 1 0\n1 2.5 1\n0 1 1\n",
                                      "3 three\n2 1 0\n1 2 1\n0 1 1\n",
                                      "3 3\n2 1 0\n1 99999999999999999999 1\n0 1 1\n"])
    def test_malformed_gram_is_usage_error(self, capsys, tmp_path, text):
        a = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        gr = tmp_path / "gr.mtxt"
        gr.write_text(text)
        gc = self._gram(tmp_path, "gc.mtxt", a.T @ a)
        assert run(["reconstruct", "--grow", str(gr), "--gcol", gc]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestParserReuse:
    """run() shares one parser per process; no call may see another's arguments."""

    def test_json_flag_does_not_stick(self, capsys):
        assert cli(capsys, "verify", "--json", A7, B7)[1].startswith("{")
        assert cli(capsys, "verify", A7, B7) == (0, "Gram mates (difference rank 1)\n")

    def test_cap_does_not_stick(self, capsys, b10):
        assert cli(capsys, "isomorphic", "--cap", "1", A10, b10) == (4, "undecided (cap)\n")
        code, out = cli(capsys, "isomorphic", A10, b10)
        assert code == 0 and out.startswith("isomorphic\n")

    def test_usage_error_then_valid_call(self, capsys, i2):
        assert run(["verify", i2]) == 2
        assert run(["frobnicate"]) == 2
        assert cli(capsys, "mates-of", i2) == (0, "mates: 1\n2 2\n0 1\n1 0\n")

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()


class TestCap:
    """--cap is a node count: below 0 is a usage error, 0 is a cap hit."""

    @pytest.mark.parametrize("cap, code", [("-1", 2), ("0", 4)])
    @pytest.mark.parametrize("command", ["isomorphic", "fixable", "mates-of"])
    def test_cap_at_the_bound(self, capsys, command, cap, code, i2, x2):
        files = [i2] if command == "mates-of" else [i2, x2]
        assert run([command, *files, "--cap", cap]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and ("at least 0" in err) == (code == 2)


@pytest.mark.parametrize("command, code", [
    ("isomorphic", 0), ("fixable", 0), ("mates-of", 3), ("reconstruct", 0)])
def test_tall_inputs_decide(capsys, tmp_path, command, code):
    """Both searches go one level per row, and over a thousand rows still
    decide: a 1,200 x 3 matrix and a row permutation of it, the rank-1 pair
    [[0,1],[1,0]] and I2 over 1,098 zero rows, and a 1,200 x 1 column of
    ones, whose only matrix with its Grams is itself."""
    rng = np.random.default_rng(0)

    def saved(name, a):
        save_matrix(BinaryMatrix(a), tmp_path / name)
        return str(tmp_path / name)

    ones = np.ones((1200, 1), dtype=np.int64)
    if command == "isomorphic":
        a = rng.integers(0, 2, (1200, 3)).astype(np.int8)
        argv = [saved("A.mtxt", a), saved("PA.mtxt", a[rng.permutation(1200)])]
    elif command == "fixable":
        a = np.zeros((1100, 2), dtype=np.int8)
        b = a.copy()
        a[:2], b[:2] = [[0, 1], [1, 0]], [[1, 0], [0, 1]]
        argv = [saved("A.mtxt", a), saved("B.mtxt", b)]
    elif command == "mates-of":
        argv = [saved("J.mtxt", ones)]
    else:
        argv = ["--grow", TestReconstruct._gram(tmp_path, "gr.mtxt", ones @ ones.T),
                "--gcol", TestReconstruct._gram(tmp_path, "gc.mtxt", ones.T @ ones)]
    assert run([command, *argv]) == code
    out, err = capsys.readouterr()
    assert err == ""
    if command == "isomorphic":  # the witness lines P and Q follow
        out = out.split("P: ")[0]
    assert out == {"isomorphic": "isomorphic\n", "fixable": "fixable\n", "mates-of": "mates: 0\n",
                   "reconstruct": "1200 1\n" + "1\n" * 1200}[command]


@pytest.mark.parametrize("bad", ["non-utf8", "long-name"])
@pytest.mark.parametrize("argv", [
    ["verify", A7, "{bad}"], ["convertible", A7, "{bad}"], ["classify", "{bad}"],
    ["complete", "{bad}"], ["gram-data", "{bad}"], ["gram-data", E7, "--witness", "{bad}"],
    ["isomorphic", A7, "{bad}"], ["isomorphic", "--distinct-sv", A7, "{bad}"],
    ["fixable", A7, "{bad}"], ["mates-of", "{bad}"],
    ["reconstruct", "--grow", "{bad}", "--gcol", E7],
    ["construct", "--op", "complement", A7, "{bad}"],
], ids=lambda argv: " ".join(a for a in argv if a not in (A7, E7, "{bad}")))
def test_unreadable_input_is_usage_error(capsys, tmp_path, argv, bad):
    """A file that is not UTF-8, or a path the OS refuses, exits 2 with one
    error line, on every subcommand that reads files."""
    path = tmp_path / ("x" * 5000) if bad == "long-name" else tmp_path / "raw.mtxt"
    if bad == "non-utf8":
        path.write_bytes(b"\xff\xfe2 2\n1 0\n0 1\n")
    assert run([a.replace("{bad}", str(path)) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("content,message", [
    (b"2 2\n1 0\n", "expected 2 rows, found 1"),
    (b"\xff\xfe2 2\n1 0\n0 1\n", "'utf-8' codec can't decode byte 0xff"),
])
def test_input_errors_name_the_file(capsys, tmp_path, i2, content, message):
    bad = tmp_path / "bad.mtxt"
    bad.write_bytes(content)
    for argv in (["verify", i2, str(bad)], ["reconstruct", "--grow", str(bad), "--gcol", i2]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# contract fuzz: any .mtxt text and any argv exit in {0, 2, 3, 4}, never raise


def _text(a) -> str:
    a = np.asarray(a)
    return f"{a.shape[0]} {a.shape[1]}\n" + "".join(
        " ".join(str(int(x)) for x in row) + "\n" for row in a)


def _fixture_text(name) -> str:
    return (FIX / name).read_text()


_MATES = [(_text([[0, 1], [1, 0]]), _text(np.eye(2, dtype=int))),
          (_text(np.eye(3, dtype=int)), _text(np.roll(np.eye(3, dtype=int), 1, axis=1))),
          (_fixture_text("ex_rank1_A.mtxt"), _fixture_text("ex_rank1_B.mtxt")),
          (_fixture_text("ex_same_entries_A.mtxt"),
           _text(load_matrix(A10).int64() + load_matrix(E10).int64()))]
# hypothesis draws early list entries more often, so the M5 forms come first
_FORM_MATRICES = [canonical_rank2_E(m, idx) for m, idx in [
    ("M5", dict(k=1, l=1, p=1, q=1, r=1, s=1, a=1, b=1, c=1, d=1, e=1, f=1)),
    ("M5", dict(k=2, l=1, p=0, q=1, r=1, s=2, a=2, b=1, c=0, d=1, e=1, f=2)),
    ("M4", dict(k=1, l=1, a=1, b=0, c=0, d=0, e=0, f=1, g=0, h=1)),
    ("M3", dict(k=1, l=1, a=1, b=1, c=1, d=1, e=1, f=1)),
    ("M1", dict(k=1, l=1, a=1, b=1)),
]]
_FORMS = [_text(E.data) for E in _FORM_MATRICES] + [
    _fixture_text("ex_rank1_E.mtxt"), _fixture_text("ex_same_entries_E.mtxt"), _text(_M2_E.data)]
# completed witnesses of the realizable forms, the rank-1 fixture's witness
# (convertible) and another M2 witness (not convertible), for --witness
_WITNESSES = [_text(rank2_complete(f).data)
              for f in map(classify_rank2, _FORM_MATRICES) if rank2_realizable(f)] + [
    _fixture_text("ex_rank1_A.mtxt"), _text(_M2_OTHER_WITNESS)]
# each witness with each form of its shape, so that the witness check runs
_SAME_SHAPE = [(e, w) for w in _WITNESSES for e in _FORMS
               if e.split("\n", 1)[0] == w.split("\n", 1)[0]]


def _small(entries):
    return st.integers(1, 4).flatmap(lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.sampled_from(entries), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


# shapes at most 4x4, so that enumerate, mates-of and construct stay quick
_SMALL_TEXT = st.one_of(
    _small([0, 1]).map(_text),
    _small([0, 1, 1, 0, -1, 2]).map(_text),
    st.text(alphabet="0123456789 -+.#xe\n", max_size=30),
)
_MATRIX_TEXT = st.one_of(_SMALL_TEXT, st.sampled_from([t for pair in _MATES for t in pair] + _FORMS))
_PAIR_TEXT = st.one_of(st.sampled_from(_MATES), st.tuples(_MATRIX_TEXT, _MATRIX_TEXT))
_SMALL_PAIR_TEXT = st.one_of(st.sampled_from(_MATES[:2]), st.tuples(_SMALL_TEXT, _SMALL_TEXT))


def _grams(rows) -> tuple[str, str]:
    a = np.array(rows)
    return _text(a @ a.T), _text(a.T @ a)


_GRAM_TEXT = st.one_of(_small([0, 1]).map(_grams), st.tuples(_MATRIX_TEXT, _MATRIX_TEXT))
_NOT_UTF8 = st.binary(max_size=20).map(lambda b: b"\xff" + b)  # 0xff starts no UTF-8 sequence
_CAP = st.sampled_from(["1", "0", "-3", "50", "x"])
_SIZE = st.sampled_from(["1", "2", "3", "4", "0", "-1", "2.5", "x", ""])
_SUMS = st.one_of(st.lists(st.integers(-1, 4), max_size=4).map(lambda xs: ",".join(map(str, xs))),
                  st.sampled_from(["", " ", "1,,2", "1 2", "x", "1.5", "-", "2;1", "--"]))


@st.composite
def _invocation(draw, command):
    """(argv with {dir} placeholders, {file name: text or raw bytes})."""
    files = {}
    if command == "enumerate":
        argv = [command, draw(_SIZE), draw(_SIZE)]
    elif command == "urs":
        argv = [command, "--rows", draw(_SUMS), "--cols", draw(_SUMS)]
    elif command == "mates-of":
        files["A.mtxt"] = draw(_SMALL_TEXT)
        argv = [command, "{dir}/A.mtxt"]
    elif command == "construct":
        op = draw(st.sampled_from(["complement", "dirsum", "join", "kron", "kron-swap",
                                   "block-swap", "bogus"]))
        argv = [command, "--op", op]
        for k in range(draw(st.sampled_from([2, 4, 1, 3]))):
            if k % 2 == 0:
                files[f"{k}.mtxt"], files[f"{k + 1}.mtxt"] = draw(_SMALL_PAIR_TEXT)
            argv.append(f"{{dir}}/{k}.mtxt")
    elif command == "reconstruct":
        files["gr.mtxt"], files["gc.mtxt"] = draw(_GRAM_TEXT)
        argv = [command, "--grow", "{dir}/gr.mtxt", "--gcol", "{dir}/gc.mtxt"]
    elif command in ("classify", "complete", "gram-data"):
        files["E.mtxt"] = draw(st.one_of(st.sampled_from(_FORMS), _MATRIX_TEXT))
        argv = [command, "{dir}/E.mtxt"]
    else:
        files["A.mtxt"], files["B.mtxt"] = draw(_PAIR_TEXT)
        argv = [command, "{dir}/A.mtxt", "{dir}/B.mtxt"]
    options = {
        "verify": [["--json"]],
        "convertible": [["--json"]],
        "classify": [["--json"]],
        "complete": [["--out", "{dir}/out.mtxt"]],
        "gram-data": [["--json"], ["--witness", "{dir}/W.mtxt"]],
        "isomorphic": [["--cap", draw(_CAP)], ["--distinct-sv"]],
        "fixable": [["--cap", draw(_CAP)]],
        "reconstruct": [],
        "enumerate": [["--rank", draw(st.sampled_from(["0", "1", "2", "-1", "x", "1.5"]))],
                      ["--rowsums", draw(_SUMS)], ["--colsums", draw(_SUMS)], ["--json"]],
        "urs": [],
        "mates-of": [["--cap", draw(_CAP)]],
        "construct": [["--out-prefix", "{dir}/out"]],
    }[command]
    for option in options:
        if draw(st.booleans()):
            argv += option
    if "{dir}/W.mtxt" in argv:
        files["E.mtxt"], files["W.mtxt"] = draw(st.one_of(
            st.sampled_from(_SAME_SHAPE),
            st.tuples(st.just(files["E.mtxt"]), st.one_of(st.sampled_from(_WITNESSES), _MATRIX_TEXT))))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x", "-"])))
    # bytes that are not UTF-8, and input paths the OS refuses
    if files and draw(st.integers(0, 9)) == 0:
        files[draw(st.sampled_from(sorted(files)))] = draw(_NOT_UTF8)
    inputs = [i for i, a in enumerate(argv) if a.startswith("{dir}/") and a[6:] in files]
    if inputs and draw(st.integers(0, 9)) == 0:
        argv[draw(st.sampled_from(inputs))] = draw(st.sampled_from(["{dir}/" + "x" * 5000, "{dir}"]))
    return argv, files


@pytest.mark.parametrize("command", ["verify", "convertible", "classify", "complete",
                                     "gram-data", "isomorphic", "fixable", "reconstruct",
                                     "enumerate", "urs", "mates-of", "construct"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_contract_fuzz(command, data):
    argv, files = data.draw(_invocation(command))
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            Path(d, name).write_bytes(text if isinstance(text, bytes) else text.encode())
        args = [a.replace("{dir}", d) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(args)
    assert code in (0, 2, 3, 4), args
