"""Hypothesis runs derandomized: each property test draws the same
examples on every run, so a rare draw cannot make one run fail and the
next pass.  A test's own ``@settings(max_examples=...)`` still applies."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
