"""Every property test draws the same examples on every run: one hypothesis
profile, derandomized and without an example database, loaded before any
test module builds its settings."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
