"""Every name the benchmark's tracer wraps still exists and still counts.

``perfbench/spans.py`` wraps package functions and methods by name and
reads counts from their arguments and results.  A renamed function or
parameter does not stop a benchmark run: the name is only listed as
missing, or its counter fails once, and the layer metric reads zero.  This
runs traced commands in a fresh process, as the benchmark worker does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
root, work = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import selsolve.cli as cli
from spans import Tracer
tracer = Tracer()
tracer.install()
for argv in (["pipeline", "--degree", "3"],
             ["gen", "--nc", "--degree", "3", "--out", work + "/n3.sys"],
             ["solve", work + "/n3.sys"],
             ["solve", "--oracle", work + "/n3.sys"],
             ["verify", "--degree", "3", "--solution", work + "/n3.sys.sol",
              "--trials", "2"]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
print(json.dumps(tracer.missing))
"""


def test_every_traced_name_resolves(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert "counter for" not in done.stderr, done.stderr
