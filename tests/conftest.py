"""Settings shared by the tests under this directory.

Every Hypothesis test draws the same examples on every run: the profile
below derandomizes them, and a test's own ``@settings`` (``max_examples``,
``deadline``) inherits it. A failure then reproduces on the next run and on
another machine.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
