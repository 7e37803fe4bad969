"""Smoke test of tools/bank_ab.py at a 200-step chain."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bank_ab", Path(__file__).resolve().parents[1] / "tools" / "bank_ab.py")
bank_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bank_ab)

SRC = bank_ab.ROOT / "src"


def test_two_runs_of_one_tree_write_the_same_outputs():
    runs = [bank_ab.run_side(SRC, 7919, 200) for _ in range(2)]
    assert all(r["cpu"] > 0.0 for r in runs)
    assert runs[0]["sha256"] == runs[1]["sha256"] and len(runs[0]["sha256"]) == 64
    lines, same = bank_ab.summary({"base": runs[:1], "change": runs[1:]})
    assert same and len(lines) == 3
    assert lines[1].split()[:2] == ["base", "1"] and lines[1].endswith(runs[0]["sha256"])
    other = bank_ab.run_side(SRC, 7920, 200)
    assert not bank_ab.summary({"base": runs, "change": [other]})[1]
