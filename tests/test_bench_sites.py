"""The benchmark tracer's call sites all name attributes that exist."""

import importlib
from pathlib import Path

BENCH = Path(__file__).parents[1] / "bench"


def test_every_traced_site_resolves(monkeypatch):
    # Tracer.install looks each site up before a round starts, so one missing
    # name would end `bench/run.py --trace 1` with an AttributeError
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    sites = workloads.trace_sites(workloads.make_api())
    missing = [
        f"{getattr(namespace, '__name__', 'api')}.{attr}"
        for namespace, attr, _ in sites
        if not hasattr(namespace, attr)
    ]
    assert sites and missing == []
