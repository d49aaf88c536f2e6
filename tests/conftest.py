"""Test-suite settings: hypothesis draws the same examples on every run.

With ``derandomize=True`` each property test takes its examples from a seed
derived from the test itself, so a failing run repeats exactly; no example
database is needed to reproduce it.  ``deadline=None`` because exact
arithmetic on a drawn example can take longer than hypothesis's default
per-example limit on a slow host without anything being wrong.
"""

from hypothesis import settings

settings.register_profile("mctwist", derandomize=True, deadline=None)
settings.load_profile("mctwist")
