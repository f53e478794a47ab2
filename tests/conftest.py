"""Every Hypothesis test runs derandomized (examples drawn from a seed fixed
per test), so tier-1 draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
