import json
import subprocess

import pytest

import bench_pairs


def test_directions_are_the_benchmarks():
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    better = bench_pairs.directions()
    assert list(better) == [metric["name"] for metric in spec["end_to_end"]]
    assert better["items_per_s"] == "higher" and better["peak_mem_mb"] == "lower"


def test_per_layer_directions_are_the_benchmarks():
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    better = bench_pairs.directions("per_layer")
    assert better == {metric["name"]: metric["better"] for metric in spec["per_layer"]}
    assert better["daft.waveform_samples.self_ms"] == "lower" and better["sensing.pd_at_pfa_0.01"] == "higher"


def test_layer_report_keeps_the_medians_that_move_past_the_spread():
    theirs = {
        "a.self_ms": [1.0, 1.1, 1.2, 1.0, 1.1],  # quartiles 1.0, 1.1, 1.1
        "b.self_ms": [1.0, 1.1, 1.2, 1.0, 1.1],
        "c.ratio": [0.5, 0.5, 0.5, 0.5, 0.5],
        "d.errors": [0.0, 0.0, 0.0, 0.0, 0.0],
        "e.self_ms": [2.0, 2.0, 2.0, 2.0, 2.0],
    }
    ours = {
        "a.self_ms": [0.8, 0.8, 0.9, 0.8, 0.8],  # lower by more than the spread: better
        "b.self_ms": [1.1, 1.1, 1.15, 1.05, 1.1],  # median unchanged
        "c.ratio": [0.4, 0.4, 0.4, 0.4, 0.4],  # lower, and higher is better: worse
        "d.errors": [0.0, 0.0, 0.0, 0.0, 0.0],  # zero on both sides
        "e.self_ms": [2.0, 2.0, 2.0, 2.0, 2.0],
        "f.self_ms": [9.0],  # the revision does not report it
    }
    better = {"a.self_ms": "lower", "b.self_ms": "lower", "c.ratio": "higher", "d.errors": "lower",
              "e.self_ms": "lower", "f.self_ms": "lower"}
    lines = bench_pairs.layer_report(theirs, ours, better)
    assert [line.split()[0] for line in lines] == ["a.self_ms", "c.ratio"]
    assert lines[0].endswith("better (lower is better)") and lines[1].endswith("worse (higher is better)")
    assert "rev 1.1 [1, 1.1]" in lines[0] and "checkout 0.8 [0.8, 0.8]" in lines[0]
    # a spread as wide as the gap hides it; one a hair narrower shows it
    assert bench_pairs.layer_report({"x": [1.0, 1.0, 2.0]}, {"x": [1.5, 1.5, 1.5]}, {"x": "lower"}) == []
    assert len(bench_pairs.layer_report({"x": [1.0, 1.0, 1.49]}, {"x": [1.5, 1.5, 1.5]}, {"x": "lower"})) == 1


def test_quartiles_of_one_and_of_many():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_spread():
    theirs = [45.0, 45.4, 44.8, 45.2, 45.1, 44.9, 45.3, 45.0, 45.2, 45.1]
    clear = [47.5, 47.9, 47.1, 47.6, 47.4, 47.0, 47.8, 47.3, 47.7, 44.0]  # one loss
    verdict = bench_pairs.judge(theirs, clear, "higher")
    assert verdict["wins"] == 9 and verdict["pairs"] == 10 and verdict["gain_shown"]
    assert verdict["change"] == pytest.approx(47.45 / 45.1 - 1.0)
    two_losses = clear[:8] + [44.0, 44.0]
    assert not bench_pairs.judge(theirs, two_losses, "higher")["gain_shown"]
    narrow = [value + 0.01 for value in theirs]  # wins every pair, inside the spread
    assert bench_pairs.judge(theirs, narrow, "higher")["wins"] == 10
    assert not bench_pairs.judge(theirs, narrow, "higher")["gain_shown"]
    # a lower-is-better metric reads the other way
    assert bench_pairs.judge(clear, theirs, "lower")["gain_shown"]
    assert not bench_pairs.judge(theirs, clear, "lower")["gain_shown"]


def test_report_has_one_line_per_shared_metric():
    theirs = {"items_per_s": [1.0, 1.1, 1.2], "setup_s": [0.2, 0.2, 0.2]}
    ours = {"items_per_s": [2.0, 2.1, 2.2], "setup_s": [0.2, 0.2, 0.2], "extra": [1.0]}
    lines = bench_pairs.report(theirs, ours, {"setup_s": "lower", "items_per_s": "higher", "call_p50_ms": "lower"})
    assert [line.split()[0] for line in lines] == ["setup_s", "items_per_s"]
    assert lines[0].endswith("gain shown: no") and lines[1].endswith("gain shown: yes")
    assert "wins 3/3" in lines[1] and "+90.91 %" in lines[1]


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(bench_pairs.ROOT), *args], check=True, stdout=subprocess.PIPE).stdout


def test_revision_is_extracted_byte_for_byte(tmp_path):
    # the extraction step of ``bench_pairs.py REV`` only; no benchmark runs
    try:
        _git("rev-parse", "--verify", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs git and a checkout with a commit")
    bench_pairs.extract("HEAD", tmp_path)
    root = bench_pairs.ROOT
    bench = {
        str(path.relative_to(root)) for path in (root / "perfbench").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and ".perfbench" not in path.parts
    }
    listed = set(_git("ls-tree", "-r", "--name-only", "HEAD", "src").decode().split())
    extracted = {str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*") if path.is_file()}
    assert extracted == listed | bench
    assert (tmp_path / "src/afdm_isac/__init__.py").read_bytes() == _git("show", "HEAD:src/afdm_isac/__init__.py")
    for name in bench:
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes()
