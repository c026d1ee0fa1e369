"""The benchmark's workloads, by the names BENCHMARK.json uses."""

from importlib import import_module

MODULES = {
    "rank2-audit": "rank2_audit",
    "exhaustive": "exhaustive",
    "iso-search": "iso_search",
    "cli-mix": "cli_mix",
}


def load(name: str):
    """The Workload class of a named workload."""
    return import_module(f"{__name__}.{MODULES[name]}").Workload
