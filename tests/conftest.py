"""One hypothesis profile for the whole suite: every property test draws the
same examples on every run and keeps no example database, so a run's outcome
depends on the code alone."""

from hypothesis import settings

settings.register_profile("clnce", derandomize=True, database=None, deadline=None)
settings.load_profile("clnce")
