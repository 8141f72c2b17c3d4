"""Shared test setup."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _interpreter_digit_limit():
    """cdse.cli.main lifts the int/str digit limit for its process; put the
    interpreter's limit back so each test starts from it."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)
