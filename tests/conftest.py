"""Shared test configuration.

Property tests run under a derandomized hypothesis profile, so every run of
the suite draws the same examples and a failure reproduces as-is.
"""

from hypothesis import settings

settings.register_profile("polarsc", derandomize=True, deadline=None, database=None)
settings.load_profile("polarsc")
