"""Smoke test of `scripts/walk_digest.py`: the seed-0 carry-walk and flat-walk-baseline slices, twice in one process."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "walk_digest.py"


@pytest.fixture
def walk_digest(monkeypatch):
    # the script pins BLAS threads in os.environ and puts its checkout's
    # `src` and `perfbench` in front of sys.path on import; put both back
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("walk_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def slice_digest_twice(walk_digest, monkeypatch, capsys, walk):
    """The seed-0 slice's digest lines of `walk`, after checking that a second run prints them again."""
    monkeypatch.setattr(sys, "argv", ["walk_digest.py", "--slice", "--walk", walk, "--seed", "0"])
    runs = []
    for _ in range(2):
        assert walk_digest.main() == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    line, *logs = runs[0]
    assert [log.split()[0] for log in logs] == list(walk_digest.LOGS)
    return line


def test_slice_digest_repeats_in_one_process(walk_digest, monkeypatch, capsys):
    line = slice_digest_twice(walk_digest, monkeypatch, capsys, "carry-walk")
    assert line.startswith("carry-walk seed=0 ticks=5 mean_iterations=178.800000 non_converged=2 sha256=")


def test_baseline_slice_digest_repeats_in_one_process(walk_digest, monkeypatch, capsys):
    line = slice_digest_twice(walk_digest, monkeypatch, capsys, "flat-walk-baseline")
    assert line.startswith("flat-walk-baseline seed=0 ticks=5 mean_iterations=200.000000 non_converged=5 sha256=")
