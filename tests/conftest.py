"""Settings shared by every test module.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every run of the suite checks the same examples: a failure
shows again on the next run, and no example saved by an earlier run is
replayed.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
