"""Session setup shared by the test modules."""

from qseries.coeffring import RAT_ONE


def pytest_report_header(config):
    """Name the rational backend the run exercises (gmpy2.mpq or fractions.Fraction)."""
    backend = type(RAT_ONE)
    return f"rational backend: {backend.__module__}.{backend.__qualname__}"
