"""Hypothesis profiles; HYPOTHESIS_PROFILE=ci selects the one CI runs with."""

import os

from hypothesis import settings

# slow runners must not fail an example on time alone, and a failure must reproduce
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
