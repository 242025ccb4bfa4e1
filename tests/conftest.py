"""Every hypothesis test draws the same examples on every run, so a defect a
property can reach fails each run, not only the runs that happen to draw it."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
