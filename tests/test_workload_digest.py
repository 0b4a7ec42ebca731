import subprocess

import numpy as np
import pytest

import workload_digest
from perfbench.test_perfbench import SMALL


@pytest.mark.parametrize("name", sorted(SMALL))
def test_digest_repeats_in_one_process(name):
    # no value is pinned: BLAS rounding differs between hosts
    build, params = SMALL[name]
    first = workload_digest.digest(build, params)
    assert len(first) == 64 and int(first, 16) >= 0
    assert workload_digest.digest(build, params) == first


def test_digest_sees_one_ulp_and_the_layout():
    value = np.array([[0.1, 0.2]])
    base = workload_digest.outcome_digest([{"curve": value, "n": 3}], {"q": 0.5})
    changed = [
        ([{"curve": np.nextafter(value, 1.0), "n": 3}], {"q": 0.5}),
        ([{"curve": value.T, "n": 3}], {"q": 0.5}),
        ([{"curve": value.astype(np.float32), "n": 3}], {"q": 0.5}),
        ([{"curve": value, "n": 4}], {"q": 0.5}),
        ([{"curve": value, "n": 3}], {"q": float(np.nextafter(0.5, 1.0))}),
        ([{"curve": value, "n": 3}, {"curve": value, "n": 3}], {"q": 0.5}),
    ]
    assert len({base} | {workload_digest.outcome_digest(*args) for args in changed}) == 1 + len(changed)


def test_moved_names_each_changed_key_with_its_largest_relative_change():
    theirs = ([{"err": 2.0, "bits": 8, "curve": np.array([1.0, 4.0])}, {"err": 4.0, "bits": 8, "curve": np.ones(2)}],
              {"ber": 0.5, "nmse": -20.0})
    ours = ([{"err": 2.2, "bits": 8, "curve": np.array([1.0, 3.0])}, {"err": 5.0, "bits": 8, "curve": np.ones(2)}],
            {"ber": 0.5, "nmse": -25.0, "extra": 1.0})
    changes = workload_digest.moved(theirs, ours)
    assert changes.keys() == {"err", "curve", "quality.nmse", "quality.extra"}
    assert changes["err"] == pytest.approx(0.2) and changes["curve"] == pytest.approx(0.25)
    assert changes["quality.nmse"] == pytest.approx(0.2) and changes["quality.extra"] == float("inf")
    assert workload_digest.moved(theirs, theirs) == {}
    assert workload_digest.moved(theirs, (ours[0][:1], theirs[1]))["err"] == float("inf")


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(workload_digest.ROOT), *args], check=True, stdout=subprocess.PIPE).stdout


def test_revision_is_extracted_byte_for_byte(tmp_path):
    # the extraction step of ``workload_digest.py REV`` only; no workload runs
    try:
        _git("rev-parse", "--verify", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs git and a checkout with a commit")
    workload_digest.extract("HEAD", tmp_path)
    listed = _git("ls-tree", "-r", "--name-only", "HEAD", "src", "perfbench", "tests/workload_digest.py")
    extracted = {str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*") if path.is_file()}
    assert extracted == set(listed.decode().split())
    assert (tmp_path / "src/afdm_isac/__init__.py").read_bytes() == _git("show", "HEAD:src/afdm_isac/__init__.py")
