"""tools/point_costs.py, the script that times a key-rate curve's per-distance calls."""

import importlib.util
import sys
from pathlib import Path

_SCRIPT = Path(__file__).parents[1] / "tools" / "point_costs.py"
_spec = importlib.util.spec_from_file_location("point_costs", _SCRIPT)
point_costs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(point_costs)


def test_prints_one_positive_cost_per_timed_call(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["point_costs.py", "--repeat", "1"])
    point_costs.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for _, name in rows] == [name for name, _ in point_costs.curves()]
    assert all(float(cost) > 0.0 for cost, _ in rows)
