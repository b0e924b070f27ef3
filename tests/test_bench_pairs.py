"""The summary step of ``tools/bench_pairs.py`` on canned result lines,
and its export of the parent on a small repository made here; no benchmark
runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_rel", "unit": "ratio", "better": "lower",
            "bound": 0.25},
           {"name": "ok_frac", "unit": "ratio", "better": "higher",
            "bound": 0.01}]


def line(wall, ok=1.0, failed=0):
    """A result line of ``perfbench/run.py``: every end-to-end metric of
    BENCHMARK.json, 1 unless given."""
    values = {m["name"]: 1.0
              for m in bench_pairs.load_benchmark()["end_to_end"]}
    values.update(wall_rel=wall, ok_frac=ok)
    return json.dumps({"correct": not failed, "attempted": 10,
                       "failed": failed, "metrics": {
                           name: {"value": v} for name, v in values.items()}})


def pairs(parent, change):
    return [{"parent": line(p), "change": line(c)}
            for p, c in zip(parent, change)]


def row(lines, name):
    (found,) = [r for r in lines if r.split()[0] == name]
    return found.split()


PARENT = [2.06, 2.07, 2.05, 2.08, 2.07, 2.06, 2.07, 2.08, 2.06, 2.07]


def test_a_clear_gain_holds():
    change = [1.95] * 9 + [2.09]  # lower in 9 of 10
    lines = bench_pairs.summarize({"staged": pairs(PARENT, change)}, METRICS)
    assert lines[0] == ("staged: 10 pairs, failed operations parent 0, "
                        "change 0")
    wall = row(lines, "wall_rel")
    assert wall[1] == "lower" and wall[2] == "2.07"
    assert wall[5] == "1.95" and wall[8:] == [
        "-5.80%", "0.25", "within", "9/10", "holds"]
    # equal ok_frac: no win, no gain, within its bound
    assert row(lines, "ok_frac")[-4:] == ["0.01", "within", "0/10", "no"]


def test_eight_wins_in_ten_is_no_gain():
    change = [1.95] * 8 + [2.09] * 2
    wall = row(bench_pairs.summarize({"staged": pairs(PARENT, change)},
                                     METRICS), "wall_rel")
    assert wall[-2:] == ["8/10", "no"]


def test_a_gap_inside_the_parent_quartiles_is_no_gain():
    # lower in every pair, but by less than the parent's spread
    change = [p - 0.001 for p in PARENT]
    wall = row(bench_pairs.summarize({"staged": pairs(PARENT, change)},
                                     METRICS), "wall_rel")
    assert wall[-2:] == ["10/10", "no"]


def test_a_loss_past_the_bound_and_failed_operations_show():
    runs = pairs(PARENT, [p * 1.3 for p in PARENT])
    runs[0]["change"] = line(2.7, ok=0.9, failed=1)
    lines = bench_pairs.summarize({"verify": runs}, METRICS)
    assert lines[0].endswith("parent 0, change 1")
    assert row(lines, "wall_rel")[-4:] == ["0.25", "OVER", "0/10", "no"]
    # the median ok_frac is still 1: within its bound
    assert row(lines, "ok_frac")[-3] == "within"


def test_sides_alternate_and_saved_lines_read_back(tmp_path, capsys):
    assert [bench_pairs.sides_in_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]
    saved = tmp_path / "runs.jsonl"
    runs = pairs(PARENT, [1.95] * 10)
    with saved.open("w") as out:
        for i, pair in enumerate(runs):
            for side in bench_pairs.sides_in_order(i):
                out.write(json.dumps({"workload": "staged", "pair": i,
                                      "side": side, "line": pair[side]})
                          + "\n")
        # a pair cut short by a failed run is left out
        out.write(json.dumps({"workload": "staged", "pair": 10,
                              "side": "parent", "line": line(2.0)}) + "\n")
    assert bench_pairs.read_saved(saved) == {"staged": runs}
    assert bench_pairs.main(["--summarize", str(saved)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("staged: 10 pairs")
    # every end-to-end metric of BENCHMARK.json has a row
    names = [m["name"] for m in bench_pairs.load_benchmark()["end_to_end"]]
    assert [r.split()[0] for r in printed[2:]] == names


def git(root, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=t",
                    "-c", "user.email=t@t", *args], check=True,
                   stdout=subprocess.DEVNULL)


def test_the_parent_is_the_committed_files_of_its_revision(tmp_path):
    repo, parent = tmp_path / "repo", tmp_path / "parent"
    (repo / "src").mkdir(parents=True)
    parent.mkdir()
    (repo / "src" / "a.py").write_text("old\n")
    git(repo, "init", "-q")
    git(repo, "add", ".")
    git(repo, "commit", "-q", "-m", "old")
    assert not bench_pairs.differs(repo, "HEAD")
    (repo / "src" / "a.py").write_text("new\n")
    (repo / "untracked.py").write_text("x\n")
    assert bench_pairs.differs(repo, "HEAD")
    bench_pairs.export(repo, "HEAD", parent)
    assert (parent / "src" / "a.py").read_text() == "old\n"
    assert not (parent / "untracked.py").exists()


def test_a_run_needs_a_parent_and_a_new_save_file(tmp_path, capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main([])
    assert "--parent is required" in capsys.readouterr().err
    saved = tmp_path / "runs.jsonl"
    saved.write_text("")
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--save", str(saved)])
    assert "exists" in capsys.readouterr().err
