"""The suite's shared fixtures, loaded as a plugin by ``conftest.py``.

They live apart from ``conftest.py`` so that importing that module's
constants and generators, as the benchmark does, never imports pytest.
"""

import pytest

from conftest import REFERENCE_ASSIGNMENT
from freshcache import CacheScheme, Scenario, load_scenario


@pytest.fixture(scope="session")
def table1() -> Scenario:
    return load_scenario("table1")


@pytest.fixture()
def reference_scheme() -> CacheScheme:
    return CacheScheme(assignment=dict(REFERENCE_ASSIGNMENT))
