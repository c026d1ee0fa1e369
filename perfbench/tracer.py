"""Outside-in tracing of the grammate layers.

The tracer replaces every public function of every grammate module with a
timing wrapper, in every grammate namespace that binds it (so a name brought
in with `from .gram import is_gram_pair` is wrapped too), and wraps the
constructors of BinaryMatrix, SignedMatrix and GramPair.  Nothing under src/
changes; `uninstall` puts the originals back.

Spans nest on a stack.  A call's self time is its duration minus the
durations of the wrapped calls made inside it.  Hot leaf calls are not kept
one by one: they are summed per (name, parent name), so memory stays bounded.
Task spans, one per benchmark task, are kept whole.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

# cli subcommand bodies count as cli's own time: only cli.run is wrapped there.
_CLI_WRAPPED = {"run"}
_CONSTRUCTORS = (("matrix_core", "BinaryMatrix", "matrix_core.construct"),
                 ("matrix_core", "SignedMatrix", "matrix_core.construct"),
                 ("gram", "GramPair", "gram.GramPair"))
TASK = "task"


def _iso_verdict(result) -> str:
    if result is True or type(result).__name__ == "IsoWitness":
        return "yes"
    if isinstance(result, str) and result.startswith("undecided"):
        return "undecided"
    return "no"


def _on_result(name, args, kwargs, result, counters: Counter) -> None:
    """Counts that need a call's arguments or result."""
    if name == "gram.is_gram_pair":
        counters["gram.is_gram_pair.yes"] += result is not None
    elif name == "rank_forms.rank2_realizable":
        counters["rank_forms.rank2_realizable.yes"] += result is True
    elif name == "oracle.enumerate_gram_pairs":
        m, n = (args + (kwargs.get("m"), kwargs.get("n")))[:2]
        counters["oracle.pairs_emitted"] += len(result)
        counters["oracle.codes_scanned"] += 1 << (m * n)
    elif name in ("iso.are_isomorphic", "iso.is_fixable", "iso.iso_distinct_sv"):
        counters["iso.verdict." + _iso_verdict(result)] += 1


_COUNTED = {"gram.is_gram_pair", "rank_forms.rank2_realizable", "oracle.enumerate_gram_pairs",
            "iso.are_isomorphic", "iso.is_fixable", "iso.iso_distinct_sv"}


class Tracer:
    def __init__(self):
        # each frame: [name, start, time covered by wrapped children]
        self._stack: list[list] = []
        # (name, parent) -> [calls, self seconds, total seconds]
        self.agg: dict[tuple[str, str], list] = {}
        self.counters: Counter = Counter()
        self.tasks: list[dict] = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> float:
        name, start, covered = self._stack.pop()
        dur = perf_counter() - start
        key = (name, "")
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            key = (name, parent[0])
        row = self.agg.get(key)
        if row is None:
            row = self.agg[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur - covered
        row[2] += dur
        return dur

    def begin_task(self, task) -> None:
        self._enter(TASK)
        self.tasks.append({"label": task.label, "input": task.input})

    def end_task(self) -> None:
        self.tasks[-1]["start"] = self._stack[-1][1]
        self.tasks[-1]["seconds"] = self._exit()

    def wrap(self, name: str, fn):
        tracer = self
        counted = name in _COUNTED

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if counted:
                _on_result(name, args, kwargs, result, tracer.counters)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in list(sys.modules.items())
                if m is not None and (n == "grammate" or n.startswith("grammate."))}
        targets: dict[int, object] = {}
        for modname, mod in mods.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != modname:
                    continue
                if short == "cli" and attr not in _CLI_WRAPPED:
                    continue
                targets[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapped = targets.get(id(obj))
                if wrapped is not None:
                    self._undo.append((mod, attr, obj, True))
                    setattr(mod, attr, wrapped)
        for modname, clsname, name in _CONSTRUCTORS:
            cls = getattr(mods["grammate." + modname], clsname)
            had_own = "__init__" in vars(cls)
            self._undo.append((cls, "__init__", vars(cls).get("__init__"), had_own))
            cls.__init__ = self.wrap(name, cls.__init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(row[0] for (n, _), row in self.agg.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(row[1] for (n, _), row in self.agg.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(row[2] for (n, _), row in self.agg.items() if n == name)

    def names(self) -> set[str]:
        return {n for n, _ in self.agg}
