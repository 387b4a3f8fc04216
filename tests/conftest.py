import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# CI draws the same examples on every run: HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
