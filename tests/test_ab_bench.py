"""Smoke test of `scripts/ab_bench.py`: one slice, this checkout against itself, one round."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"


@pytest.fixture
def ab_bench(monkeypatch):
    # the script pins BLAS threads in os.environ on import, and each tree
    # imports a private copy of the package; put both back afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_same_tree_twice_gives_identical_solves(ab_bench, monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "CASES", (("carry-walk", 0),))
    trees = (ab_bench.Tree("base", ab_bench.ROOT), ab_bench.Tree("change", ab_bench.ROOT))
    records, identical = ab_bench.run_ticks(trees, rounds=1)
    assert identical
    (record,) = records
    assert (record["workload"], record["seed"], record["identical_results"]) == ("carry-walk", 0, True)
    assert record["base"]["iterations"] == record["change"]["iterations"]
    assert len(record["base"]["tick_solve_ms_fastest"]) == 5  # the slice's five ticks
    assert "identical=True" in capsys.readouterr().out
