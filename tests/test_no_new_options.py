"""No option that only one value in use needs.

Every verdict rests on an exact check, so a numeric tolerance or a size
limit is a module constant.  A new option, whether a library parameter or a
CLI flag, needs two existing callers that need different values.  The table
below names every option of every subcommand, and no public function takes
a tolerance except `gram.convertibility`, whose `tol` is kept for positional
callers and accepts only None: all seven of its conditions are exact.
"""

import argparse
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import grammate
from grammate.cli import build_parser
from grammate.gram import convertibility, is_gram_pair
from grammate.matrix_core import BinaryMatrix

OPTIONS = {
    "verify": {"--json"},
    "convertible": {"--json"},
    "classify": {"--json"},
    "complete": {"--out"},
    "gram-data": {"--witness", "--json"},
    "urs": {"--rows", "--cols"},
    "construct": {"--op", "--out-prefix"},
    "isomorphic": {"--cap", "--distinct-sv"},
    "fixable": {"--cap"},
    "enumerate": {"--rank", "--rowsums", "--colsums", "--json"},
    "mates-of": {"--cap"},
    "reconstruct": {"--grow", "--gcol"},
}

TOLERANCE_PARAMETERS = {"gram.convertibility"}


def _subcommand_options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
                   for s in a.option_strings}
            for name, p in sub.choices.items()}


def _public_callables():
    """(module.qualname, callable) for every public function and method."""
    for info in pkgutil.iter_modules(grammate.__path__):
        mod = importlib.import_module(f"grammate.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        yield f"{info.name}.{name}.{attr}", fn


def test_cli_options_match_the_table():
    assert _subcommand_options() == OPTIONS


def test_only_convertibility_takes_a_tolerance():
    found = {name for name, fn in _public_callables()
             if any("tol" in p for p in inspect.signature(fn).parameters)}
    assert found == TOLERANCE_PARAMETERS
    pair = is_gram_pair(BinaryMatrix.identity(2), BinaryMatrix(np.array([[0, 1], [1, 0]])))
    with pytest.raises(ValueError):
        convertibility(pair, 1e-6)
