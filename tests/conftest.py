import pytest

from nilcohom import catalog
from nilcohom.cohomology import full_table


@pytest.fixture(scope="session")
def all_cases():
    return catalog.list_cases()


@pytest.fixture(scope="session")
def structures(all_cases):
    return {case.id: case.structure for case in all_cases}


@pytest.fixture(scope="session")
def tables(structures):
    return {cid: full_table(cs) for cid, cs in structures.items()}
