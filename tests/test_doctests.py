import doctest

import pytest

import freehop.graphs
import freehop.hbar
import freehop.hurwitz
import freehop.operators
import freehop.oracles
import freehop.pscore
import freehop.series
import freehop.symcore
import freehop.tables
import freehop.transforms

MODULES = [
    freehop.symcore,
    freehop.hbar,
    freehop.pscore,
    freehop.hurwitz,
    freehop.series,
    freehop.graphs,
    freehop.operators,
    freehop.oracles,
    freehop.tables,
    freehop.transforms,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
