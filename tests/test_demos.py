"""Every demo script runs to its end."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
NAMES = ["balance_and_asymmetry", "cheeger_lower_bound", "heat_decay", "numerical_range"]


@pytest.mark.parametrize("name", NAMES)
def test_demo_runs(name, tmp_path, monkeypatch):
    # Demos may write figures to the working directory.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
