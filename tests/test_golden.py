"""Byte-exact outputs of ``check`` and ``gen``.

Neither command touches BLAS or LAPACK, so its report is the same on every
machine; ``tests/golden`` holds one expected stdout per argv, with the tool
version as ``@VERSION@``.  ``certify``, ``spectrum`` and ``evolve`` are left
out: their BLAS reductions can round differently across CPUs.
"""

from pathlib import Path

import pytest

import dirlap as dl
from dirlap.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "check-ladder": (0, "check", "--gen", "ladder", "--N", "30"),
    "check-tree": (1, "check", "--gen", "tree", "--depth", "3", "--root", "r.1"),
    "check-random": (0, "check", "--gen", "random", "--n", "50", "--radius", "2"),
    "check-graph": (1, "check", "--graph", "graph.json"),
    "gen-ladder": (0, "gen", "ladder"),
    "gen-tree": (0, "gen", "tree", "--depth", "3"),
    "gen-random": (0, "gen", "random"),
}


@pytest.mark.parametrize("name", CASES)
def test_output_is_byte_identical_to_the_golden_file(name, capsys, monkeypatch):
    code, *argv = CASES[name]
    monkeypatch.chdir(GOLDEN)  # the report's config quotes the --graph path as given
    assert main(argv) == code
    out, err = capsys.readouterr()
    expected = (GOLDEN / f"{name}.out").read_bytes().replace(b"@VERSION@", dl.__version__.encode())
    assert err == ""
    assert out.encode() == expected
