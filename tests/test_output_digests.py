"""Every command's output bytes match the committed digest table.

``tests/digests.py`` runs the commands in one subprocess; the table
``tests/output_digests.json`` holds what they wrote when it was recorded.
A refactor that keeps behaviour keeps every digest.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from digests import table_changes

HERE = Path(__file__).resolve().parent


def test_output_digests(tmp_path):
    table = json.loads((HERE / "output_digests.json").read_text(encoding="utf-8"))
    result = subprocess.run(
        [sys.executable, str(HERE / "digests.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    run = json.loads(result.stdout)
    assert run["numpy"] == table["numpy"], (
        f"the digest table was recorded with numpy {table['numpy']} but this run has numpy "
        f"{run['numpy']}; floating-point output can differ between the two"
    )
    assert run["blas_threads"] == table["blas_threads"]
    expected, got = table["outputs"], run["outputs"]
    differ = [
        f"{name}: expected {expected.get(name)}, got {got.get(name)}"
        for name in sorted(expected.keys() | got.keys())
        if expected.get(name) != got.get(name)
    ]
    assert not differ, "outputs differ from the digest table:\n" + "\n".join(differ)


def test_table_changes_lists_changed_added_and_removed_keys_in_order():
    old = {"numpy": "2.0", "blas_threads": 1, "outputs": {"b: x": "1", "a: y": "2", "c: z": "3"}}
    new = {"numpy": "2.1", "blas_threads": 1, "outputs": {"a: y": "2", "c: z": "4", "d: w": "5"}}
    assert table_changes(old, new) == [
        "removed b: x: 1",
        "changed c: z: 3 -> 4",
        "added d: w: 5",
        "changed numpy: 2.0 -> 2.1",
    ]
    assert table_changes(new, new) == []
    assert table_changes({}, {"blas_threads": 1, "outputs": {"a: y": "2"}}) == [
        "added a: y: 2",
        "added blas_threads: 1",
    ]
