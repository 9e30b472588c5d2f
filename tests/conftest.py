"""Test-wide hypothesis settings.

The default profile draws the same examples on every run
(``derandomize=True``), so a property or stateful test that passes once
passes on every run, and sets no per-example deadline, because example
times on a small shared host vary too much for one to mean anything.
Per-test ``@settings`` still set the example counts.
"""

from hypothesis import settings

settings.register_profile("hidict", deadline=None, derandomize=True)
settings.load_profile("hidict")
