"""Session setup shared by the test modules."""

import warnings

from hypothesis import settings

# A wider search for CI (``--hypothesis-profile=ci``); the default profile
# keeps the local run as fast as it was.
settings.register_profile("ci", max_examples=1000, deadline=None)

# Hypothesis's pytest plugin imports this module when a @given test fails, to
# print an explicit-example patch; with libcst installed the import raises a
# DeprecationWarning, which the "error" warning filter would turn into an
# INTERNALERROR that ends the session.  Importing it here, once, with that
# warning ignored lets a failing example be reported as a failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
