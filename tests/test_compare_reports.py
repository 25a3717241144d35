import copy
import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

BASE = {
    "lambda1": {"value": 2.0, "iterations": 19, "residual": 8.3e-10},
    "bounds": [
        {"name": "reilly", "lhs": 2.0, "rhs": 1.7, "slack": -0.3, "holds": False, "direction": None},
        {"name": "tiny", "lhs": 1e-3, "rhs": 2e-3, "slack": 1e-3, "holds": True, "direction": [1.0]},
    ],
    "verdict": "pass",
}


def edited(path, value):
    out = copy.deepcopy(BASE)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_drift_within_tolerance_passes():
    assert compare_reports.compare(BASE, copy.deepcopy(BASE)) == []
    assert compare_reports.compare(BASE, edited(("lambda1", "value"), 2.0 + 1e-9)) == []
    assert compare_reports.compare(BASE, edited(("bounds", 1, "direction", 0), 1.0 + 5e-10)) == []


def test_float_drift_beyond_tolerance_fails():
    (excess, path, _), = compare_reports.compare(BASE, edited(("lambda1", "value"), 2.0 + 1e-8))
    assert path == "$.lambda1.value" and excess > 1


def test_slack_is_measured_against_its_entry():
    # 2e-12 on a slack of 1e-3 is within 1e-9 * max(|lhs|, |rhs|) = 2e-12 ...
    assert compare_reports.compare(BASE, edited(("bounds", 1, "slack"), 1e-3 + 1.9e-12)) == []
    # ... but 1e-11 is not, although it is far below 1e-9 * max(1, |slack|)
    (_, path, _), = compare_reports.compare(BASE, edited(("bounds", 1, "slack"), 1e-3 + 1e-11))
    assert path == "$.bounds[1].slack"


def test_residual_matches_within_its_gate():
    # 8.3e-10 -> 9.9e-9 is far beyond 1e-9 but both pass the 1e-8 gate
    assert compare_reports.compare(BASE, edited(("lambda1", "residual"), 9.9e-9)) == []
    assert compare_reports.compare(BASE, edited(("lambda1", "residual"), 1e-8)) == []
    nan = float("nan")
    for old, new in ((8.3e-10, 1.05e-8), (9.5e-9, 1.02e-8), (2e-8, 9e-9), (nan, 1e-9), (1e-9, nan)):
        base = edited(("lambda1", "residual"), old)
        (excess, path, message), = compare_reports.compare(base, edited(("lambda1", "residual"), new))
        assert path == "$.lambda1.residual" and "above the gate" in message, (old, new)
    # a residual outside the lambda1 block is an ordinary float
    other = dict(BASE, identities={"residual": 1e-10})
    drifted = dict(BASE, identities={"residual": 5e-9})
    (_, path, message), = compare_reports.compare(other, drifted)
    assert path == "$.identities.residual" and "tol" in message


def test_exact_fields_must_match():
    for path, value in (
        (("bounds", 0, "holds"), True),
        (("lambda1", "iterations"), 20),
        (("lambda1", "value"), 2),
        (("verdict",), "fail"),
        (("bounds", 0, "direction"), [1.0]),
    ):
        mismatches = compare_reports.compare(BASE, edited(path, value))
        assert mismatches and mismatches[0][0] == float("inf"), path
    reordered = dict(reversed(list(BASE.items())))
    assert compare_reports.compare(BASE, reordered)[0][2].startswith("keys")


def test_section_avg_reports():
    case = {"lemma": "section", "form": 0, "direction": 1, "exact": 2.5, "estimate": 2.49}
    case.update({"stderr": 0.01, "z": 1.0, "pass": True})
    old = {"schema_version": 1, "m": 4, "samples": 400000, "seed": 7, "cases": [case]}
    old["verdict"] = "pass"
    drifted = copy.deepcopy(old)
    drifted["cases"][0]["z"] = 1.0 + 1e-12
    assert compare_reports.compare(old, drifted) == []
    flipped = copy.deepcopy(old)
    flipped["cases"][0]["pass"] = False
    (excess, path, _), = compare_reports.compare(old, flipped)
    assert path == "$.cases[0].pass" and excess == float("inf")


def test_main_exit_codes(tmp_path, capsys):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(BASE), encoding="utf-8")
    new.write_text(json.dumps(BASE), encoding="utf-8")
    assert compare_reports.main([str(old), str(new)]) == 0
    new.write_text(json.dumps(edited(("bounds", 0, "holds"), True)), encoding="utf-8")
    assert compare_reports.main([str(old), str(new)]) == 1
    assert "$.bounds[0].holds: False != True" in capsys.readouterr().out
