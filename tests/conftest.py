"""Hypothesis profiles.

Local runs keep Hypothesis' random search. Under CI (the `CI` variable that
CI services set) the `ci` profile derandomizes it, so a failing bit-for-bit
property test fails again, on the same example, when rerun with `CI=1`.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
