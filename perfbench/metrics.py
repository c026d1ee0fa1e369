"""The benchmark's metric names, units and directions, and how the per-layer
ones are read off a tracer.  BENCHMARK.json lists the same metrics."""

from __future__ import annotations

from .workloads.cli_mix import SUBCOMMANDS

# (name, unit, better, bound as a share of the parent's median).  The timing
# bounds are wide because on the shared 2-core VM the benchmark was built on,
# ten seeds gave quartile spreads of 5-21% even in CPU time.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("tasks_per_s", "tasks/s", "higher", 0.25),
    ("task_p50_ms", "ms", "lower", 0.25),
    ("task_p99_ms", "ms", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
    ("decided_frac", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# public functions timed per layer: <layer>.<function>.{calls,self_s}
LAYER_FUNCTIONS = {
    "matrix_core": ("construct", "rank_exact", "apply_perms", "parse_matrix", "serialize_matrix"),
    "gram": ("is_gram_pair", "is_realizable_witness", "GramPair", "convertibility"),
    "numerics": ("svd", "distinct_singular_values", "reconstruct_from_grams"),
    "rank_forms": ("canonical_rank2_E", "classify_rank1", "classify_rank2", "rank2_realizable",
                   "rank2_complete"),
    "combinators": ("complement_pair", "direct_sum_pair", "join_pair", "kron_pair", "kron_swap",
                    "block_swap_pair"),
    "iso": ("are_isomorphic", "is_fixable", "iso_distinct_sv", "remaining_context",
            "sum_separation"),
    "oracle": ("enumerate_gram_pairs", "enumerate_mates_of"),
    "cli": ("run",),
}


def _per_layer_spec():
    spec = []
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            spec += [(f"{layer}.{fn}.calls", "count", "lower"), (f"{layer}.{fn}.self_s", "s", "lower")]
    spec += [
        ("gram.is_gram_pair.yes_frac", "ratio", "higher"),
        ("gale_ryser.calls", "count", "lower"),
        ("gale_ryser.self_s", "s", "lower"),
        ("rank_forms.realizable_frac", "ratio", "higher"),
        ("iso.verdict.yes", "count", "higher"),
        ("iso.verdict.no", "count", "higher"),
        ("iso.verdict.undecided", "count", "lower"),
        ("oracle.pairs_emitted", "count", "higher"),
        # computed from the enumerated shapes (2^(m*n) codes each), not counted
        ("oracle.codes_scanned", "count", "higher"),
        ("oracle.codes_per_s", "codes/s", "higher"),
    ]
    spec += [(f"cli.{sub}.p50_ms", "ms", "lower") for sub in SUBCOMMANDS]
    spec.append(("trace.overhead_frac", "ratio", "lower"))
    return tuple(spec)


PER_LAYER = _per_layer_spec()


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(tracer, label_p50_ms: dict[str, float], overhead: float) -> dict:
    """Every PER_LAYER metric, as {name: {"value", "unit"}}.

    label_p50_ms holds untraced median task times by task label; cli-mix
    labels its tasks cli.<subcommand>.
    """
    c = tracer.counters
    v: dict[str, float] = {}
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            v[f"{layer}.{fn}.calls"] = tracer.calls(f"{layer}.{fn}")
            v[f"{layer}.{fn}.self_s"] = tracer.self_s(f"{layer}.{fn}")
    gale = [n for n in tracer.names() if n.startswith("gale_ryser.")]
    v["gram.is_gram_pair.yes_frac"] = _frac(c["gram.is_gram_pair.yes"],
                                            tracer.calls("gram.is_gram_pair"))
    v["gale_ryser.calls"] = sum(tracer.calls(n) for n in gale)
    v["gale_ryser.self_s"] = sum(tracer.self_s(n) for n in gale)
    v["rank_forms.realizable_frac"] = _frac(c["rank_forms.rank2_realizable.yes"],
                                            tracer.calls("rank_forms.rank2_realizable"))
    for kind in ("yes", "no", "undecided"):
        v[f"iso.verdict.{kind}"] = c[f"iso.verdict.{kind}"]
    v["oracle.pairs_emitted"] = c["oracle.pairs_emitted"]
    v["oracle.codes_scanned"] = c["oracle.codes_scanned"]
    v["oracle.codes_per_s"] = _frac(c["oracle.codes_scanned"],
                                    tracer.total_s("oracle.enumerate_gram_pairs"))
    for sub in SUBCOMMANDS:
        v[f"cli.{sub}.p50_ms"] = label_p50_ms.get(f"cli.{sub}", 0.0)
    v["trace.overhead_frac"] = overhead
    return {name: {"value": v[name], "unit": unit} for name, unit, _ in PER_LAYER}
