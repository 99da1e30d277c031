"""Session setup shared by the test modules."""

from hypothesis import settings

# A wider search for CI (``--hypothesis-profile=ci``); the default profile
# keeps the local run as fast as it was.
settings.register_profile("ci", max_examples=1000, deadline=None)
