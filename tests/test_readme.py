"""README stays true to the tree: its library example runs, and it names exactly the scripts in `scripts/`."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", section("Library example"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert capsys.readouterr().out
    # its comment: about half the 1 kg robot's weight on each foot
    for wrench in namespace["step"].wrenches:
        assert wrench[2] == pytest.approx(9.81 / 2, rel=0.1)


def test_readme_names_exactly_the_scripts():
    named = set(re.findall(r"scripts/([\w.-]+\.py)", README))
    present = {path.name for path in (ROOT / "scripts").iterdir() if path.is_file()}
    assert named == present
