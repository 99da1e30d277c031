"""Session setup shared by the test modules."""

from hypothesis import settings

from qseries.coeffring import RAT_ONE

# A wider search for CI (``--hypothesis-profile=ci``); the default profile
# keeps the local run as fast as it was.
settings.register_profile("ci", max_examples=1000, deadline=None)


def pytest_report_header(config):
    """Name the rational backend the run exercises (gmpy2.mpq or fractions.Fraction)."""
    backend = type(RAT_ONE)
    return f"rational backend: {backend.__module__}.{backend.__qualname__}"
