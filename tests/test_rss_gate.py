"""The peak-RSS gate the CI package job runs its large commands through."""

import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "tools" / "rss_gate.py"
COMMAND = [sys.executable, "-c", "print('done')"]


def gate(*args):
    return subprocess.run([sys.executable, str(GATE), *args],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("bound, status", [("4096", 0), ("0", 1)],
                         ids=["met", "over"])
def test_gate_exits_by_the_bound(tmp_path, bound, status):
    out = tmp_path / "out.txt"
    done = gate("tiny run", bound, "--stdout", str(out), "--", *COMMAND)
    assert done.returncode == status, done.stderr
    line = done.stdout.strip()
    assert line.startswith("tiny run: peak RSS ") and line.endswith(" MB")
    assert float(line.split()[-2]) > 0
    assert out.read_text() == "done\n"


def test_failing_command_fails_the_gate():
    done = gate("failing", "4096", "--", sys.executable, "-c",
                "raise SystemExit(3)")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "exited with status 3" in done.stderr
