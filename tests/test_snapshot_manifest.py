"""The outputs of `scripts/snapshot_outputs.py` match the checked-in
manifest, byte for byte: the default report bytes are the public
contract, and this test guards them. A change that moves them on purpose
re-records the manifest with the script's `--manifest` flag."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "snapshot_outputs.py"
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
_spec = importlib.util.spec_from_file_location("snapshot_outputs", SCRIPT)
snapshot_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot_outputs)


def _runs(keys) -> set[str]:
    return {key.split("/", 1)[0] for key in keys}


def test_snapshot_outputs_match_the_manifest(tmp_path):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    current = snapshot_outputs.versions()
    moved = {name: (recorded["versions"][name], version)
             for name, version in current.items() if recorded["versions"][name] != version}
    if moved:
        pytest.skip(f"manifest recorded with other versions (recorded, here): {moved}")
    # a child process, so the outputs are the command lines' own: no test's
    # warning capture, monkeypatch or memo reaches them
    path = os.pathsep.join([str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    written = tmp_path / "manifest.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--manifest", str(written)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    files = json.loads(written.read_text(encoding="utf-8"))["files"]
    expected = recorded["files"]
    changed = {key for key in expected.keys() & files.keys() if expected[key] != files[key]}
    missing, added = expected.keys() - files.keys(), files.keys() - expected.keys()
    assert not (changed or missing or added), {
        "changed runs": sorted(_runs(changed)),
        "runs with files missing": sorted(_runs(missing)),
        "runs with files added": sorted(_runs(added)),
    }
