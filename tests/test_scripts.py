"""Smoke tests of the comparison scripts: each runs in a fresh interpreter
on a small input, within 10 s (60 s for a round of run_verify), and must
exit cleanly."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str, *args: str, timeout: float = 10) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def test_ab_session_finds_no_differing_outputs_against_its_own_tree():
    proc = _script("ab_session.py", str(ROOT), str(ROOT), "--ops", "30")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "outputs differ on 0" in proc.stdout


def test_width_sweep_runs_at_two_widths():
    proc = _script("width_sweep.py", "--pairs", "5", "--dofs", "1", "2", "--repeats", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "dof 1" in proc.stdout and "dof 2" in proc.stdout


def test_ab_verify_finds_no_differing_outputs_against_its_own_tree():
    proc = _script("ab_verify.py", str(ROOT), str(ROOT), "--rounds", "1", timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "outputs differ on 0" in proc.stdout
    assert "head won" in proc.stdout
