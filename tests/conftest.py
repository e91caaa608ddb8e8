"""Hypothesis profiles: `ci` draws the same examples on every run, so a
property test fails the same way on each rerun; `HYPOTHESIS_PROFILE=ci`
selects it.  Without it the default random profile stays in force."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
