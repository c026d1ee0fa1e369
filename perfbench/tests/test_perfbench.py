"""Tests of the benchmark harness itself (not of grammate)."""

import json
import math

import pytest

from perfbench import harness, metrics, selfcheck
from perfbench.harness import FAIL, OK, UNDECIDED, Record, Task
from perfbench.tracer import Tracer
from perfbench.workloads import MODULES, load

harness.import_grammate()

import grammate  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1000, 0, -1))  # unsorted on purpose
    assert harness.percentile(values, 50) == 500
    assert harness.percentile(values, 99) == 990
    assert sum(v > harness.percentile(values, 99) for v in values) == 10
    assert harness.percentile(list(range(1, 101)), 99) == 99
    assert harness.percentile([7.5], 99) == 7.5
    assert harness.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_median_of_odd_and_even_counts():
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 3, 2]) == 2.5


def _records(statuses, defect=None):
    return [Record(Task("t", f"input {i}", known_defect=defect), 0.001 * (i + 1), s, "why")
            for i, s in enumerate(statuses)]


def test_summary_counts_failures_and_undecided():
    s = harness.summarize(_records([OK] * 6 + [UNDECIDED] * 3 + [FAIL]))
    assert (s.attempted, s.failed, s.undecided) == (10, 1, 3)
    assert s.fail_frac == pytest.approx(0.1) and s.undecided_frac == pytest.approx(0.3)
    assert not s.correct
    assert s.failures == {"input 9": (1, "why", None)}
    assert s.tasks_per_s == pytest.approx(10 / sum(0.001 * (i + 1) for i in range(10)))
    assert s.p50_ms == pytest.approx(5.0) and s.p99_ms == pytest.approx(10.0)


def test_known_defect_counts_but_keeps_run_correct():
    s = harness.summarize(_records([OK, FAIL, FAIL], defect="documented"))
    assert s.failed == 2 and s.correct
    assert s.failures["input 1"][2] == "documented"


class _Fake:
    def __init__(self, outcome):
        self.outcome = outcome

    def run(self, task):
        if self.outcome == "raise":
            raise ValueError("boom")
        return self.outcome

    def check(self, task, out):
        return out, "" if out != FAIL else "wrong"


def test_execute_turns_a_raise_into_a_failure_with_the_input():
    r = harness.execute(_Fake("raise"), Task("t", "argv: x y"))
    assert r.status == FAIL and "ValueError: boom" in r.message and r.task.input == "argv: x y"


def test_run_rounds_runs_whole_rounds_at_least_once():
    tasks = [Task("t", str(i)) for i in range(5)]
    recs, _, rounds = harness.run_rounds(_Fake(OK), tasks, seconds=0.0)
    assert rounds == 1 and len(recs) == 5
    recs, _, rounds = harness.run_rounds(_Fake(OK), tasks, seconds=1e9, max_rounds=3)
    assert rounds == 3 and len(recs) == 15


@pytest.fixture(scope="module")
def exhaustive():
    return load("exhaustive")(3, None)


def test_injected_wrong_verdict_is_counted(exhaustive, monkeypatch):
    audits = [t for t in exhaustive.tasks() if t.label == "audit"][:25]
    real = grammate.gram.convertibility

    def flipped(pair, tol=None):
        rep = real(pair, tol)
        return type(rep)(not rep.convertible, rep.checks, rep.gram_singular)

    monkeypatch.setattr(grammate.gram, "convertibility", flipped)
    s = harness.summarize([harness.execute(exhaustive, t) for t in audits])
    assert (s.attempted, s.failed, s.undecided) == (25, 25, 0)
    assert not s.correct and s.fail_frac == 1.0
    assert all("convertibility said" in msg for _, msg, _ in s.failures.values())


def test_injected_cap_hit_counts_as_undecided(monkeypatch):
    wl = load("iso-search")(5, None)
    tasks = [t for t in wl.tasks() if t.label == "compose"][:10]
    monkeypatch.setattr(grammate.iso, "are_isomorphic", lambda A, B, node_cap=0: "undecided (cap)")
    s = harness.summarize([harness.execute(wl, t) for t in tasks])
    assert (s.undecided, s.failed, s.undecided_frac) == (10, 0, 1.0) and s.correct


def test_injected_wrong_no_is_caught_by_the_relabelled_copy(monkeypatch):
    wl = load("iso-search")(5, None)
    tasks = [t for t in wl.tasks() if t.label == "compose"][:10]
    monkeypatch.setattr(grammate.iso, "are_isomorphic", lambda A, B, node_cap=0: "non-isomorphic")
    s = harness.summarize([harness.execute(wl, t) for t in tasks])
    assert s.failed == 10 and not s.correct


@pytest.mark.parametrize("name", sorted(MODULES))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def inputs(seed):
        wl = load(name)(seed, tmp_path)
        files = {k: v.tolist() for k, v in getattr(wl, "arrays", {}).items()}
        return [(t.label, t.input, repr(_plain(t.payload))) for t in wl.tasks()], files

    first = inputs(11)
    assert len(first[0]) >= 1000
    assert inputs(11) == first
    if name != "exhaustive":  # its inputs are all pairs; the seed only orders them
        assert inputs(12) != first


def _plain(x):
    """A payload with numpy arrays turned into lists, for comparison."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x.tolist() if hasattr(x, "tolist") else x


def test_traced_self_times_add_up_to_the_task_span(exhaustive):
    tasks = [t for t in exhaustive.tasks() if t.label == "audit"][:5]
    tasks += [t for t in exhaustive.tasks() if t.label == "enumerate" and t.payload == (2, 3)]
    for task in tasks:
        tracer = Tracer()
        with tracer:
            rec = harness.execute(exhaustive, task, tracer)
        assert rec.status == OK
        span = tracer.tasks[0]["seconds"]
        total_self = sum(row[1] for row in tracer.agg.values())
        assert len(tracer.agg) > 3
        assert math.isclose(total_self, span, rel_tol=1e-9, abs_tol=1e-12)
        assert span >= rec.seconds  # the task span encloses the timed region


def test_wrapped_call_counts_are_exact_and_reach_from_imports():
    ok, msg = selfcheck.wrapped_call_counts()
    assert ok, msg
    original = grammate.oracle.is_gram_pair
    with Tracer():
        assert grammate.oracle.is_gram_pair is not original
        assert grammate.oracle.is_gram_pair is grammate.gram.is_gram_pair
        assert "__init__" in vars(grammate.matrix_core.BinaryMatrix)
    assert grammate.oracle.is_gram_pair is original
    assert "__init__" not in vars(grammate.matrix_core.BinaryMatrix)


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(MODULES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [tuple(m) for m in metrics.PER_LAYER]
