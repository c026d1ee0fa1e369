"""Command-line frontend.

Every subcommand reads matrices in the .mtxt text format and reports either
plain text or (where it makes sense) JSON with a "schema": 1 field.  Exit
codes: 0 affirmative, 3 negative verdict, 2 usage or input error, 4 a search
hit its cap and the question is undecided.

run() alone maps failures to exit codes: a ValueError (a library input
check, a malformed or non-UTF-8 file) or an OSError (a path the OS refuses)
exits 2 with one "error:" line on stderr, and an OracleCapError exits 4.  A
RuntimeError is a failed internal check and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import combinators, gale_ryser, iso, oracle
from .gram import GramPair, is_gram_pair, convertibility
from .matrix_core import (
    BinaryMatrix,
    _in_range,
    _mtxt_texts,
    _parse_entries,
    _read_mtxt,
    _stack_ranks,
    load_matrix,
    rank_exact,
    save_matrix,
    serialize_matrix,
)
from .rank_forms import (
    NotRealizableError,
    classify_rank1,
    classify_rank2,
    rank1_complete,
    rank1_gram_data,
    rank2_complete,
    rank2_gram_data,
    rank2_realizable,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO = 3
EXIT_UNDECIDED = 4


class UsageError(ValueError):
    """An input the library accepts but the command does not."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _load_binary(path) -> BinaryMatrix:
    M = load_matrix(path)
    if not isinstance(M, BinaryMatrix):
        raise UsageError(f"{path}: expected a (0,1) matrix")
    return M


def _load_pair(args) -> tuple[BinaryMatrix, BinaryMatrix]:
    return _load_binary(args.A), _load_binary(args.B)


def _load_mates(args) -> GramPair:
    pair = is_gram_pair(*_load_pair(args))
    if pair is None:
        raise UsageError("not Gram mates")
    return pair


def _load_gram(path) -> np.ndarray:
    """Gram matrices have entries beyond {-1,0,1}: the .mtxt grammar with
    any integer entries."""
    return _read_mtxt(path, _parse_entries)


def _texts(mats) -> list[str]:
    """The .mtxt texts of matrices of one shape, from one writer call."""
    return _mtxt_texts(np.array([M.data for M in mats])) if mats else []


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": 1, **payload}))


def _cap(text: str) -> int:
    """The argparse type of every --cap: a node count, an integer of at least 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"bad integer list: {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    pair = is_gram_pair(*_load_pair(args))
    if args.json:
        _emit_json({"command": "verify", "mates": pair is not None,
                    "diff_rank": None if pair is None else pair.diff_rank})
    elif pair is None:
        print("not Gram mates")
    else:
        print(f"Gram mates (difference rank {pair.diff_rank})")
    return EXIT_OK if pair is not None else EXIT_NO


def cmd_convertible(args) -> int:
    rep = convertibility(_load_mates(args))
    values = [] if rep.gram_singular is None else list(rep.gram_singular.values)
    if args.json:
        _emit_json({"command": "convertible", "convertible": rep.convertible,
                    "checks": rep.checks, "gram_singular_values": values})
    else:
        print(f"convertible: {'yes' if rep.convertible else 'no'}")
        width = max(len(n) for n in rep.checks)
        for name, ok in rep.checks.items():
            print(f"  {name:<{width}}  {'yes' if ok else 'no'}")
        if values:
            print("gram singular values: " + " ".join(_fmt(v) for v in values))
    return EXIT_OK if rep.convertible else EXIT_NO


def _classify(E):
    r = rank_exact(E)
    if r == 1:
        f = classify_rank1(E)
        if f is not None:
            return r, f
    elif r == 2:
        f = classify_rank2(E)
        if f is not None:
            return r, f
    return r, None


def cmd_classify(args) -> int:
    E = load_matrix(args.E)
    r, form = _classify(E)
    if form is None:
        if args.json:
            _emit_json({"command": "classify", "rank": r, "form": None})
        else:
            print(f"rank {r}, no canonical form")
        return EXIT_NO
    if r == 1:
        if args.json:
            _emit_json({"command": "classify", "rank": 1,
                        "indices": {"k1": form.k1, "k2": form.k2}, "realizable": True})
        else:
            print(f"rank 1, k1={form.k1} k2={form.k2}, realizable")
        return EXIT_OK
    ok = rank2_realizable(form)
    idx = form.as_dict()
    if args.json:
        _emit_json({"command": "classify", "rank": 2, "form": form.mtype,
                    "indices": idx, "realizable": ok})
    else:
        pretty = " ".join(f"{n}={v}" for n, v in idx.items())
        print(f"rank 2, {form.mtype}, {pretty}, "
              f"{'realizable' if ok else 'not realizable'}")
    return EXIT_OK if ok else EXIT_NO


def cmd_complete(args) -> int:
    E = load_matrix(args.E)
    r, form = _classify(E)
    if form is None:
        print(f"rank {r}, no canonical form")
        return EXIT_NO
    try:
        A = rank1_complete(form) if r == 1 else rank2_complete(form)
    except NotRealizableError:  # a ValueError that means "no", not bad input
        print("not realizable")
        return EXIT_NO
    if args.out:
        save_matrix(A, args.out)
    else:
        sys.stdout.write(serialize_matrix(A))
    return EXIT_OK


def cmd_gram_data(args) -> int:
    E = load_matrix(args.E)
    r, form = _classify(E)
    if form is None:
        print(f"rank {r}, no canonical form")
        return EXIT_NO
    if r == 2 and not rank2_realizable(form):
        print("not realizable")
        return EXIT_NO
    if args.witness:
        W = _load_binary(args.witness)
        if W.shape != E.shape:
            raise UsageError("witness and E differ in shape")
        sums = W.int64() + E.int64()
        pair = is_gram_pair(W, BinaryMatrix(sums)) if _in_range(sums, 0, 1) else None
        if pair is None:
            print("witness rejected")
            return EXIT_NO
        if not convertibility(pair).convertible:
            print("not convertible")
            return EXIT_NO
    elif r == 2 and form.mtype == "M5":
        raise UsageError("M5 Gram data needs --witness")
    rep = rank1_gram_data(form) if r == 1 else rank2_gram_data(form)
    if args.json:
        _emit_json({"command": "gram-data", "values": [float(v) for v in rep.values],
                    "source": rep.source})
    else:
        print("gram singular values: " + " ".join(_fmt(v) for v in rep.values))
        print(f"source: {rep.source}")
    return EXIT_OK


def cmd_urs(args) -> int:
    R = _int_list(args.rows)
    S = _int_list(args.cols)
    if not R or not S:
        raise UsageError("row and column sums must be non-empty")
    if min(R + S) < 0:
        raise UsageError("row and column sums must be non-negative")
    try:
        M = gale_ryser.construct_urs(R, S)
    except gale_ryser.InfeasibleError:  # a ValueError that means "no"
        print("infeasible")
        return EXIT_NO
    sys.stdout.write(serialize_matrix(M))
    return EXIT_OK


_CONSTRUCT_ARITY = {
    "complement": 2, "dirsum": 4, "join": 4, "kron": 4,
    "kron-swap": 2, "block-swap": 2,
}


def cmd_construct(args) -> int:
    mats = [_load_binary(p) for p in args.inputs]
    if len(mats) != _CONSTRUCT_ARITY[args.op]:
        raise UsageError(
            f"--op {args.op} takes {_CONSTRUCT_ARITY[args.op]} input files")
    if args.op == "block-swap":
        pair = combinators.block_swap_pair(mats[0], mats[1])
    else:
        p1 = is_gram_pair(mats[0], mats[1])
        if p1 is None:
            raise UsageError("first input pair is not Gram mates")
        if args.op == "complement":
            pair = combinators.complement_pair(p1)
        elif args.op == "kron-swap":
            pair = combinators.kron_swap(p1)
        else:
            p2 = is_gram_pair(mats[2], mats[3])
            if p2 is None:
                raise UsageError("second input pair is not Gram mates")
            pair = {"dirsum": combinators.direct_sum_pair,
                    "join": combinators.join_pair,
                    "kron": combinators.kron_pair}[args.op](p1, p2)
    if args.out_prefix:
        save_matrix(pair.A, args.out_prefix + "_A.mtxt")
        save_matrix(pair.B, args.out_prefix + "_B.mtxt")
    else:
        sys.stdout.write(serialize_matrix(pair.A))
        print()
        sys.stdout.write(serialize_matrix(pair.B))
    return EXIT_OK


def _report_witness(w: iso.IsoWitness) -> None:
    print("isomorphic")
    print("P: " + " ".join(str(i) for i in w.P.image))
    print("Q: " + " ".join(str(i) for i in w.Q.image))


def cmd_isomorphic(args) -> int:
    if args.distinct_sv:
        verdict = iso.iso_distinct_sv(_load_mates(args), node_cap=args.cap)
    else:
        verdict = iso.are_isomorphic(*_load_pair(args), node_cap=args.cap)
    if isinstance(verdict, iso.IsoWitness):
        _report_witness(verdict)
        return EXIT_OK
    if verdict == iso.UNDECIDED:
        print(iso.UNDECIDED)
        return EXIT_UNDECIDED
    print("non-isomorphic")
    return EXIT_NO


def cmd_fixable(args) -> int:
    verdict = iso.is_fixable(iso.remaining_context(_load_mates(args)), node_cap=args.cap)
    if verdict is True:
        print("fixable")
        return EXIT_OK
    if verdict == iso.UNDECIDED:
        print(iso.UNDECIDED)
        return EXIT_UNDECIDED
    print("not fixable")
    return EXIT_NO


def cmd_enumerate(args) -> int:
    # printed from the scan's arrays: its equal Gram keys are the exact check
    stack = oracle._gram_pair_arrays(
        args.M, args.N,
        _int_list(args.rowsums) if args.rowsums is not None else None,
        _int_list(args.colsums) if args.colsums is not None else None,
    )
    ranks = _stack_ranks(stack[:, 0] - stack[:, 1])
    if args.rank is not None:
        keep = ranks == args.rank
        stack, ranks = stack[keep], ranks[keep]
    ranks = ranks.tolist()
    if args.json:
        _emit_json({"command": "enumerate", "count": len(ranks),
                    "pairs": [{"A": a, "B": b, "diff_rank": r}
                              for (a, b), r in zip(stack.tolist(), ranks)]})
        return EXIT_OK
    texts = _mtxt_texts(stack.reshape(2 * len(ranks), args.M, args.N))
    sys.stdout.write(f"pairs: {len(ranks)}\n" + "".join(
        f"pair {i} (difference rank {r}):\n{texts[2 * i]}{texts[2 * i + 1]}"
        for i, r in enumerate(ranks)))
    return EXIT_OK


def cmd_mates_of(args) -> int:
    mates = oracle.enumerate_mates_of(_load_binary(args.A), node_cap=args.cap)
    sys.stdout.write(f"mates: {len(mates)}\n" + "".join(_texts(mates)))
    return EXIT_OK if mates else EXIT_NO


def cmd_reconstruct(args) -> int:
    Gr = _load_gram(args.grow)
    Gc = _load_gram(args.gcol)
    # the cap is read per call, so a patched oracle constant takes effect
    found = oracle.matrices_with_grams(Gr, Gc, oracle.DEFAULT_MATE_NODE_CAP)
    if not found:
        print("none")
        return EXIT_NO
    sys.stdout.write("\n".join(_texts(found)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grammate",
        description="Decide, classify, construct, and audit Gram mates.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("verify", cmd_verify, help="check whether two matrices are Gram mates")
    p.add_argument("A"); p.add_argument("B")
    p.add_argument("--json", action="store_true")

    p = add("convertible", cmd_convertible,
            help="evaluate the convertibility conditions for a Gram pair")
    p.add_argument("A"); p.add_argument("B")
    p.add_argument("--json", action="store_true")

    p = add("classify", cmd_classify,
            help="classify a rank-1 or rank-2 difference matrix")
    p.add_argument("E")
    p.add_argument("--json", action="store_true")

    p = add("complete", cmd_complete, help="build a witness A with (A, A+E) Gram mates")
    p.add_argument("E")
    p.add_argument("--out", default=None)

    p = add("gram-data", cmd_gram_data,
            help="closed-form Gram singular data of a difference matrix")
    p.add_argument("E")
    p.add_argument("--witness", default=None,
                   help="a witness A of E, checked for every form and required for M5; "
                        "(A, A+E) must be a convertible Gram pair")
    p.add_argument("--json", action="store_true")

    p = add("urs", cmd_urs, help="binary matrix with given row and column sums")
    p.add_argument("--rows", required=True)
    p.add_argument("--cols", required=True)

    p = add("construct", cmd_construct, help="combine Gram pairs into new ones")
    p.add_argument("--op", required=True, choices=sorted(_CONSTRUCT_ARITY))
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out-prefix", default=None)

    p = add("isomorphic", cmd_isomorphic,
            help="search for P, Q with B = PAQ")
    p.add_argument("A"); p.add_argument("B")
    p.add_argument("--cap", type=_cap, default=iso.DEFAULT_NODE_CAP)
    p.add_argument("--distinct-sv", action="store_true")

    p = add("fixable", cmd_fixable,
            help="fixability of a rank-1 Gram pair")
    p.add_argument("A"); p.add_argument("B")
    p.add_argument("--cap", type=_cap, default=iso.DEFAULT_NODE_CAP)

    p = add("enumerate", cmd_enumerate, help="all Gram pairs of a given shape")
    p.add_argument("M", type=int); p.add_argument("N", type=int)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--rowsums", default=None)
    p.add_argument("--colsums", default=None)
    p.add_argument("--json", action="store_true")

    p = add("mates-of", cmd_mates_of, help="every mate of a given matrix")
    p.add_argument("A")
    p.add_argument("--cap", type=_cap, default=oracle.DEFAULT_MATE_NODE_CAP)

    p = add("reconstruct", cmd_reconstruct,
            help="all (0,1) matrices with the given Gram matrices")
    p.add_argument("--grow", required=True)
    p.add_argument("--gcol", required=True)

    return ap


# argparse keeps no state between parse_args calls, so in-process callers of
# run() share one parser instead of rebuilding the tree on every call
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.OracleCapError as exc:  # enumerate, mates-of and reconstruct
        print(str(exc))
        return EXIT_UNDECIDED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
