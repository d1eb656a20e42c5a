import pytest

from ossp import PypParams


@pytest.fixture
def params_grid():
    """Small parameter grid spanning the DP limit and strong discounting."""
    return [PypParams(a, t) for a in (0.0, 0.25, 0.5, 0.75) for t in (0.5, 1.0, 5.0)]
