import pytest

from nilcohom import catalog
from nilcohom.cohomology import full_table


def pytest_collection_modifyitems(items):
    # the elimination kernel's tests run first, led by its step bound: an
    # elimination that stalls fails there (under -x, before a test hangs on it)
    items.sort(key=lambda item: item.path.name != "test_linalg.py")


@pytest.fixture(scope="session")
def all_cases():
    return catalog.list_cases()


@pytest.fixture(scope="session")
def structures(all_cases):
    return {case.id: case.structure for case in all_cases}


@pytest.fixture(scope="session")
def tables(structures):
    return {cid: full_table(cs) for cid, cs in structures.items()}
