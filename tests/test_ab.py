"""Tests for ``scripts/ab.py``, the paired runner that writes the BENCH files."""

import argparse
import importlib.util
import json
import os
import shutil

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "ab.py")
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = ab.declared_better()


def test_parse_spec_reads_a_seed_a_range_and_trace():
    assert ab.parse_spec("desk:7") == ("desk", [7], False)
    assert ab.parse_spec("cli-large:1-4") == ("cli-large", [1, 2, 3, 4], False)
    assert ab.parse_spec("lib-small:3-3:trace") == ("lib-small", [3], True)


@pytest.mark.parametrize("text", ["desk:1:traced", "desk:1-2:", "desk", "desk:1:trace:x", "desk:5-3"])
def test_parse_spec_rejects_bad_suffix_and_empty_range(text):
    with pytest.raises(argparse.ArgumentTypeError):
        ab.parse_spec(text)


def test_directions_come_from_the_benchmark():
    assert BETTER["op_median_ms"] == "lower"
    assert BETTER["ops_per_s"] == "higher"
    assert BETTER["oracle.certify_ms"] == "lower"


def _pair(pair, parent, change, workload="desk", trace=False):
    """Both runs of one pair; ``parent`` and ``change`` are metric dicts."""
    return [
        {"side": side, "workload": workload, "seed": pair, "trace": trace, "returncode": 0, "pair": pair,
         "correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
        for side, metrics in (("parent", parent), ("change", change))
    ]


UNITS = {"op_median_ms": "ms", "ops_per_s": "1/s"}


def test_wins_are_strict_in_the_declared_direction():
    runs = []
    # op_median_ms (lower is better): change wins, ties, loses, wins.
    # ops_per_s (higher is better): change wins, loses, ties, ties.
    for k, (pm, cm, po, co) in enumerate([(5, 4, 10, 12), (5, 5, 10, 9), (5, 6, 10, 10), (5, 3, 10, 10)]):
        runs += _pair(k, {"op_median_ms": pm, "ops_per_s": po}, {"op_median_ms": cm, "ops_per_s": co})
    entry = ab.summarize(runs, BETTER, UNITS)["desk"]
    assert entry["pairs"] == 4
    median = entry["op_median_ms"]
    assert median["better"] == "lower"
    assert median["change_better_in_pairs"] == 2
    assert median["parent"] == {"median": 5, "q1": 5, "q3": 5}
    assert median["change"]["median"] == 4.5
    assert median["change_over_parent"] == 0.9
    rate = entry["ops_per_s"]
    assert rate["better"] == "higher"
    assert rate["change_better_in_pairs"] == 1
    assert rate["change_over_parent"] == 1.0


def test_resolved_needs_ten_complete_pairs():
    runs = []
    for k in range(ab.RESOLVED_PAIRS - 1):
        runs += _pair(k, {"op_median_ms": 5}, {"op_median_ms": 4})
    assert ab.RESOLVED_PAIRS == 10
    assert ab.summarize(runs, BETTER, UNITS)["desk"]["resolved"] is False
    # A pair whose change run failed is not complete.
    broken = _pair(9, {"op_median_ms": 5}, {"op_median_ms": 4})
    del broken[1]["metrics"]
    broken[1]["error"] = "Traceback ..."
    assert ab.summarize(runs + broken, BETTER, UNITS)["desk"]["resolved"] is False
    runs += _pair(9, {"op_median_ms": 5}, {"op_median_ms": 4})
    entry = ab.summarize(runs, BETTER, UNITS)["desk"]
    assert entry["pairs"] == 10 and entry["resolved"] is True


def test_failures_and_incorrect_runs_are_counted_per_side():
    runs = _pair(0, {"op_median_ms": 5}, {"op_median_ms": 4})
    runs[0]["failed"] = 2
    more = _pair(1, {"op_median_ms": 5}, {"op_median_ms": 4})
    more[1]["failed"] = 3
    more[1]["correct"] = False
    crashed = _pair(2, {"op_median_ms": 5}, {"op_median_ms": 4})
    for run in crashed:
        del run["metrics"], run["correct"], run["attempted"], run["failed"]
        run["returncode"], run["error"] = 1, "boom"
    entry = ab.summarize(runs + more + crashed, BETTER, UNITS)["desk"]
    assert entry["pairs"] == 2
    assert entry["failed"] == {"parent": 2, "change": 3}
    assert entry["failed_runs"] == {"parent": 1, "change": 1}
    assert entry["incorrect_runs"] == {"parent": 0, "change": 1}


def test_ratio_is_none_when_the_parent_median_is_zero():
    runs = _pair(0, {"op_median_ms": 0}, {"op_median_ms": 1}) + _pair(1, {"op_median_ms": 0}, {"op_median_ms": 0})
    entry = ab.summarize(runs, BETTER, UNITS)["desk"]["op_median_ms"]
    assert entry["change_over_parent"] is None
    assert entry["change_better_in_pairs"] == 0


def test_traced_runs_are_summarised_apart():
    runs = _pair(0, {"op_median_ms": 5}, {"op_median_ms": 4})
    runs += _pair(1, {"op_median_ms": 50}, {"op_median_ms": 40}, trace=True)
    summary = ab.summarize(runs, BETTER, UNITS)
    assert set(summary) == {"desk", "desk traced"}
    assert summary["desk traced"]["op_median_ms"]["parent"]["median"] == 50


def test_the_change_side_runs_the_tree_as_it_was_when_the_session_started(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    shutil.copy(os.path.join(ab.ROOT, "BENCHMARK.json"), tree)
    source = tree / "src" / "_sweep.c"
    source.write_text("before\n")
    for skipped in (".git", ".perfbench", os.path.join("src", "__pycache__")):
        (tree / skipped).mkdir()
        (tree / skipped / "x").write_text("x")
    seen = []

    def run_once(root, side, workload, seed, trace, seconds, units):
        if side == "change":
            with open(os.path.join(root, "src", "_sweep.c")) as fh:
                seen.append((root, fh.read(), sorted(os.listdir(root)), os.listdir(os.path.join(root, "src"))))
            # An edit made while the session runs.
            source.write_text("edited\n")
        return {"side": side, "workload": workload, "seed": seed, "trace": trace, "returncode": 1, "error": "stub"}

    monkeypatch.setattr(ab, "ROOT", str(tree))
    monkeypatch.setattr(ab, "export", lambda rev, directory: "0" * 40)
    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    assert ab.main(["--parent", "HEAD", "--out", str(out), "--title", "t", "--seconds", "1", "desk:1-3"]) == 0
    assert len(seen) == 3 and len({root for root, *_ in seen}) == 1 and seen[0][0] != str(tree)
    assert [text for _, text, _, _ in seen] == ["before\n"] * 3
    assert seen[0][2:] == (["BENCHMARK.json", "src"], ["_sweep.c"])


def test_traced_runs_keep_their_spans_beside_the_output(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copy(os.path.join(ab.ROOT, "BENCHMARK.json"), tree)

    def run_once(root, side, workload, seed, trace, seconds, units):
        if trace:
            stem = os.path.join(root, ".perfbench", f"trace-{workload}-seed{seed}")
            os.makedirs(os.path.dirname(stem), exist_ok=True)
            for ext in (".spans.jsonl", ".summary.json"):
                with open(stem + ext, "w") as fh:
                    fh.write(f"{side} {seed}{ext}\n")
        return {"side": side, "workload": workload, "seed": seed, "trace": trace, "returncode": 1, "error": "stub"}

    monkeypatch.setattr(ab, "ROOT", str(tree))
    monkeypatch.setattr(ab, "export", lambda rev, directory: "0" * 40)
    monkeypatch.setattr(ab, "run_once", run_once)
    out = tmp_path / "BENCH_x.json"
    argv = ["--parent", "HEAD", "--out", str(out), "--title", "t", "--seconds", "1", "desk:1", "desk:4-5:trace"]
    assert ab.main(argv) == 0
    runs = json.loads(out.read_text())["runs"]
    assert "traces" not in runs[0] and "traces" not in runs[1]
    for run in runs[2:]:
        kept = tmp_path / run["traces"]
        assert run["traces"] == os.path.join("BENCH_x.traces", f"pair{run['pair']}-{run['side']}")
        stem = f"trace-desk-seed{run['seed']}"
        assert sorted(os.listdir(kept)) == [stem + ".spans.jsonl", stem + ".summary.json"]
        assert (kept / (stem + ".summary.json")).read_text() == f"{run['side']} {run['seed']}.summary.json\n"
    assert len({run["traces"] for run in runs[2:]}) == 4


def test_cli_large_runs_record_a_bare_interpreter_baseline_in_pair_order(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copy(os.path.join(ab.ROOT, "BENCHMARK.json"), tree)
    order = []

    def run_once(root, side, workload, seed, trace, seconds, units):
        order.append(("run", side, workload, seed))
        units["op_median_ms"] = "ms"
        total = {"parent": 100.0, "change": 96.0}[side] + seed
        return {"side": side, "workload": workload, "seed": seed, "trace": trace, "returncode": 0,
                "correct": True, "attempted": 3, "failed": 0, "metrics": {"op_median_ms": total}}

    def bare_interpreter_ms():
        order.append(("bare",))
        return 70.0 + len(order) % 4  # 72, 70, 72, 70 in call order

    monkeypatch.setattr(ab, "ROOT", str(tree))
    monkeypatch.setattr(ab, "export", lambda rev, directory: "0" * 40)
    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setattr(ab, "bare_interpreter_ms", bare_interpreter_ms)
    out = tmp_path / "BENCH_x.json"
    argv = ["--parent", "HEAD", "--out", str(out), "--title", "t", "--seconds", "1",
            "cli-large:1-2", "desk:1", "cli-large:3:trace"]
    assert ab.main(argv) == 0
    # Each untraced cli-large run is followed by its baseline, in the
    # alternating pair order; desk and traced runs take none.
    assert order == [
        ("run", "parent", "cli-large", 1), ("bare",), ("run", "change", "cli-large", 1), ("bare",),
        ("run", "change", "cli-large", 2), ("bare",), ("run", "parent", "cli-large", 2), ("bare",),
        ("run", "parent", "desk", 1), ("run", "change", "desk", 1),
        ("run", "change", "cli-large", 3), ("run", "parent", "cli-large", 3),
    ]
    doc = json.loads(out.read_text())
    baselines = [(run["workload"], run["side"], run.get("bare_interpreter_ms")) for run in doc["runs"]]
    assert baselines[:4] == [
        ("cli-large", "parent", 72.0), ("cli-large", "change", 70.0),
        ("cli-large", "change", 72.0), ("cli-large", "parent", 70.0),
    ]
    assert all(bare is None for _, _, bare in baselines[4:])
    entry = doc["summary"]["cli-large"]
    assert entry["bare_interpreter_ms"]["parent"]["median"] == 71.0
    assert entry["bare_interpreter_ms"]["change"]["median"] == 71.0
    # op_median_ms less each run's own baseline: parent 29 and 32, change 27 and 26.
    library = entry["library_ms"]
    assert library["parent"]["median"] == 30.5 and library["change"]["median"] == 26.5
    assert library["change_better_in_pairs"] == 2 and library["better"] == "lower"
    assert "bare_interpreter_ms" not in doc["summary"]["desk"]
    assert "library_ms" not in doc["summary"]["cli-large traced"]


def test_the_bare_interpreter_baseline_times_real_starts():
    ms = ab.bare_interpreter_ms(starts=3)
    assert isinstance(ms, float) and 0 < ms < 10_000
