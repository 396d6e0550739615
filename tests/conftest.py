"""Shared pytest set-up.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples.  Its remaining on-disk cache (constants read
from the source files) goes to a temporary directory removed at the end of
the run, so a test run writes no ``.hypothesis/`` into the working tree.

Every test starts and ends with an empty ``engine`` plan memo, so call
counts and monkeypatched helpers never leak from one test to another.
"""

import shutil
import tempfile

import pytest
from hypothesis import configuration, settings

from stairpow import engine

settings.register_profile("stairpow", derandomize=True, database=None, max_examples=150)
settings.load_profile("stairpow")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture(autouse=True)
def _empty_plan_memo():
    engine._plan.cache_clear()
    yield
    engine._plan.cache_clear()
