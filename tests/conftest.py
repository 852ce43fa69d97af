"""Test-suite settings shared by every module.

Property tests draw the same examples on every run and keep no example
database, so one failing seed cannot be replayed into every later run of a
checkout, and a result depends on the code alone.
"""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
