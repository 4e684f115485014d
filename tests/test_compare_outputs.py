import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

import compare_outputs  # noqa: E402

SCHEMA = {"columns": [{"name": "x", "kind": "numeric"},
                      {"name": "c", "kind": "categorical"}]}


def _write(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


def test_compare_csv_counts_flips_and_the_largest_relative_move(tmp_path):
    old = _write(tmp_path / "old.csv", [["x", "c"], ["1.0", "a"], ["-2.0", "b"], ["0.0", "a"]])
    new = _write(tmp_path / "new.csv", [["x", "c"], ["1.0", "b"], ["-2.002", "b"], ["0.0", "a"]])
    lines = compare_outputs.compare_csv(old, new, SCHEMA)
    assert lines[0].startswith("  1 categorical flips, 1 numeric cells moved of 6 cells")
    assert "largest relative move 0.000999 in x" in lines[0]
    assert "  c: 1 of 3 categorical cells differ" in lines


def test_compare_csv_identical_and_reshaped(tmp_path):
    rows = [["x", "c"], ["1.0", "a"]]
    same = compare_outputs.compare_csv(_write(tmp_path / "a.csv", rows),
                                       _write(tmp_path / "b.csv", rows), SCHEMA)
    assert same == ["  0 categorical flips, 0 numeric cells moved of 2 cells"]
    longer = _write(tmp_path / "c.csv", rows + [["2.0", "b"]])
    assert "shapes differ" in compare_outputs.compare_csv(
        str(tmp_path / "a.csv"), longer, SCHEMA)[0]


def test_compare_reports_lists_headline_and_changed_numbers():
    old = {"fidelity": {"omega": 0.5, "per_column": {"x": 0.25, "c": 0.75}},
           "utility": {"phi": None}, "privacy": {"pi": 0.125}, "metadata": {"n": 3}}
    new = {"fidelity": {"omega": 0.5, "per_column": {"x": 0.5, "c": 0.75}},
           "utility": {"phi": None}, "privacy": {"pi": 0.125}, "metadata": {"n": 3}}
    lines = compare_outputs.compare_reports(old, new)
    assert lines == ["  fidelity.omega: 0.5 -> 0.5 (delta +0)",
                     "  utility.phi: None -> None (delta n/a)",
                     "  privacy.pi: 0.125 -> 0.125 (delta +0)",
                     "  fidelity.per_column.x: 0.25 -> 0.5 (delta +0.25)"]
