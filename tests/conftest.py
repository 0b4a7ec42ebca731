import os

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run (derandomize also turns
# the example database off), so a tier-1 result depends on the code alone.
# HYPOTHESIS_PROFILE=explore draws fresh random examples on each run instead.
settings.register_profile("deterministic", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))


@pytest.fixture
def rng():
    return np.random.default_rng(0xAFD0)


def random_unit_symbols(rng, n):
    """Random QPSK symbols with unit average energy."""
    return (rng.choice([-1.0, 1.0], n) + 1j * rng.choice([-1.0, 1.0], n)) / np.sqrt(2)


class CountingNumpy:
    """numpy, with ``exp``, ``sin``, ``cos`` and ``sinc`` counting the elements they evaluate.

    Patch it over a module's ``np`` to count the transcendentals a call makes.
    """

    COUNTED = ("exp", "sin", "cos", "sinc")

    def __init__(self):
        self.evaluated = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.COUNTED:
            return attr

        def counted(x, *args, **kwargs):
            self.evaluated += np.size(x)
            return attr(x, *args, **kwargs)

        return counted
