"""Shared test configuration: one hypothesis profile for every property test.

derandomize makes each property test draw the same examples on every run, so
a failure reproduces without the example database; deadline=None because a
single example can legitimately take longer than hypothesis' default 200 ms
(an eigensolve or a branch bisection).  Tests set only max_examples.
"""

from hypothesis import settings

settings.register_profile("ladderspec", derandomize=True, deadline=None)
settings.load_profile("ladderspec")
