import importlib.util
import pathlib
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "direction_scan.py"
_spec = importlib.util.spec_from_file_location("direction_scan", SCRIPT)
direction_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(direction_scan)


def test_direction_scan_prints_lambda1_and_six_boost_rows(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["direction_scan.py", "--level", "2", "--samples", "5"])
    direction_scan.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("case=counterexample level=2 lambda1=")
    assert lines[1].split() == ["boost", "s", "rhs(sharp)", "rhs(plain)", "eq", "verdict"]
    rows = [line.split() for line in lines[2:8]]
    assert [float(row[0]) for row in rows] == [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
    assert all(len(row) == 4 for row in rows)
    assert lines[8].startswith("infimum over 5 sampled directions: ")
    assert len(lines) == 9
