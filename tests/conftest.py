"""Test-session settings: a derandomized hypothesis profile for CI.

``HYPOTHESIS_PROFILE=ci`` selects the profile ``ci``, under which every run
draws the same examples and no example database is read or written, so a
property test's outcome depends only on the code.  Without the variable
the default profile applies and each run draws new examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
