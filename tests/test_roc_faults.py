import json
import subprocess
import sys

import roc_faults


def test_faults_are_counted_around_each_call():
    faults = roc_faults.faults_per_call(256, "kernel", 2, seed=3)
    assert len(faults) == 2 and all(isinstance(count, int) and count >= 0 for count in faults)


def test_a_child_prints_its_counts():
    out = subprocess.run(
        [sys.executable, roc_faults.__file__, "--child", "256", "lone", "--calls", "1"],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    faults = json.loads(out)
    assert len(faults) == 1 and faults[0] >= 0


def test_one_line_per_size_and_mode(monkeypatch, capsys):
    monkeypatch.setattr(roc_faults, "_run", lambda n_sub, mode, calls, seed: [3, 1, 2])
    roc_faults.main(["--calls", "3"])
    assert capsys.readouterr().out.splitlines() == [
        f"n_sub {n_sub} {mode} median 2 min 1 max 3 (3 calls)"
        for n_sub in (256, 1024) for mode in ("lone", "kernel")
    ]
