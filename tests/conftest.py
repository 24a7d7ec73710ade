import os

import pytest
from hypothesis import settings
from hypothesis.errors import InvalidArgument

from mayacal.supernumber import PAPER, derive

# Under $CI (GitHub Actions sets it) a counterexample prints its @reproduce_failure line.
# Hypothesis versions that bring their own "ci" profile keep its other settings.
try:
    _ci = settings.get_profile("ci")
except InvalidArgument:
    _ci = None
settings.register_profile("ci", _ci, print_blob=True)
if "CI" in os.environ:
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def constants():
    return derive(PAPER)
