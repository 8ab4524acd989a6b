import pytest

from nilcohom import catalog
from nilcohom.cohomology import full_table


def pytest_collection_modifyitems(items):
    # the template reader's single-read test runs first: a reader that goes
    # back to an earlier item fails there (under -x, before a test loops on
    # it).  The elimination kernel's tests come next, led by its step bound:
    # an elimination that stalls fails there, before a test hangs on it
    items.sort(key=lambda item: (item.name != "test_the_scanner_reads_only_the_conj_and_abs_items",
                                 item.path.name != "test_linalg.py"))


@pytest.fixture(scope="session")
def all_cases():
    return catalog.list_cases()


@pytest.fixture(scope="session")
def structures(all_cases):
    return {case.id: case.structure for case in all_cases}


@pytest.fixture(scope="session")
def tables(structures):
    return {cid: full_table(cs) for cid, cs in structures.items()}
