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
