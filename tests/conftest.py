"""Every Hypothesis test runs derandomized (examples drawn from a seed fixed
per test), so tier-1 draws the same examples on every run.  The sweep of
primitive canonical ideals is built once per session."""

import pytest
from hypothesis import settings

from quadtwist.ideals import enumerate_canonical
from quadtwist.quadfield import is_squarefree

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def primitive_ideals():
    """Every primitive canonical ideal with squarefree D <= 1000, a <= 40."""
    ideals = [I for D in range(2, 1001) if is_squarefree(D)
              for I in enumerate_canonical(D, 40) if I.g == 1]
    assert len(ideals) == 19154
    return ideals
