"""Shared pytest set-up.

Hypothesis runs derandomized and without its example database, so every
run draws the same examples.  Its remaining on-disk cache (constants read
from the source files) goes to a temporary directory removed at the end of
the run, so a test run writes no ``.hypothesis/`` into the working tree.

Every test starts and ends with an empty ``engine`` plan memo, so call
counts and monkeypatched helpers never leak from one test to another.

Every array a kernel hands to ``MonomialIdeal._canonical``, which checks
nothing, is validated in full for the whole session (see
:func:`_validated_canonical`).
"""

import shutil
import tempfile

import pytest
from hypothesis import configuration, settings

from stairpow import engine
from stairpow.ideals import MonomialIdeal

settings.register_profile("stairpow", derandomize=True, database=None, max_examples=150)
settings.load_profile("stairpow")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture(autouse=True, scope="session")
def _validated_canonical():
    """Run the public constructor's full validation on every array given to
    ``MonomialIdeal._canonical``, so a kernel that emits a non-canonical
    array fails the suite.  It raises rather than asserts, so it also holds
    under ``python -O``.  Tests that run the package in a child process (the
    CLI and ``-O`` runs) go without it; their outputs are compared with
    ``naive_power`` or ``check`` instead."""
    trusted = MonomialIdeal.__dict__["_canonical"]

    def checked(cls, xy):
        MonomialIdeal(xy)  # raises ValueError or ExponentOverflowError
        return trusted.__func__(cls, xy)

    MonomialIdeal._canonical = classmethod(checked)
    yield
    MonomialIdeal._canonical = trusted


@pytest.fixture(autouse=True)
def _empty_plan_memo():
    engine._plan.cache_clear()
    yield
    engine._plan.cache_clear()
