import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database and take no deadline, so the suite stays deterministic and
# its time bounded.
settings.register_profile("qperc", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("qperc")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
