"""Checks of tools/output_hashes.py on a one-command list."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "output_hashes", Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py")
output_hashes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_hashes)

SRC = output_hashes.ROOT / "src"


def _moments(seed):
    return [("moments", ["moments", "--alpha-grid", "1:2:2", "--beta-grid", "2:3:2",
                         "--draws", "200", "--seed", str(seed), "--out", "m.csv"])]


def test_two_runs_of_one_tree_agree_and_another_seed_differs(tmp_path):
    first = output_hashes.hashes(SRC, _moments(3), tmp_path / "a")
    again = output_hashes.hashes(SRC, _moments(3), tmp_path / "b")
    other = output_hashes.hashes(SRC, _moments(4), tmp_path / "c")
    assert list(first) == ["moments/m.csv"]
    assert output_hashes.compare(first, again) == (
        [f"{first['moments/m.csv']}  moments/m.csv  same"], True)
    lines, same = output_hashes.compare(other, first)
    assert not same and lines[0].endswith("  moments/m.csv  DIFFERENT")


def test_a_file_on_one_side_only_differs():
    lines, same = output_hashes.compare({"a/x": "1"}, {"a/x": "1", "a/y": "2"})
    assert lines == ["1  a/x  same", "-  a/y  DIFFERENT"] and not same


def test_generated_csv_is_fixed_and_above_the_truncation_point(tmp_path):
    output_hashes.write_csv(tmp_path / "a.csv")
    output_hashes.write_csv(tmp_path / "b.csv")
    text = (tmp_path / "a.csv").read_text()
    assert text == (tmp_path / "b.csv").read_text()
    values = [float(v) for v in text.splitlines()[1:]]
    assert len(values) == 800 and min(values) > 0.5
