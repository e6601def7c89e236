"""Shared fixtures for the torusflow test suite.

Expensive objects (the reference triangle section, the three-dimensional
box arrangement) are built once per session; everything random is driven
by explicitly seeded generators so reruns are reproducible.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from torusflow.algebraic import parse_literal
from torusflow.engine import FlowInstance
from torusflow.geometry import Direction, Polytope, arrangement_cells, build_piecewise_linear_section

TRIANGLE_VERTICES = [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9)]

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible.
settings.register_profile("torusflow", derandomize=True, database=None,
                          deadline=None, max_examples=200)
settings.load_profile("torusflow")


@pytest.fixture(scope="session")
def silver():
    return parse_literal("sqrt(2) - 1")


@pytest.fixture(scope="session")
def silver_direction(silver):
    return Direction.make([silver, parse_literal("1")])


@pytest.fixture(scope="session")
def triangle():
    return Polytope.from_vertices(TRIANGLE_VERTICES)


@pytest.fixture(scope="session")
def triangle_instance(triangle, silver_direction):
    zero = parse_literal("0")
    return FlowInstance.build(silver_direction, (zero, zero), triangle)


@pytest.fixture(scope="session")
def triangle_section(triangle, silver_direction):
    return build_piecewise_linear_section(triangle, silver_direction)


@pytest.fixture(scope="session")
def box3_direction():
    return Direction.make([parse_literal("sqrt(2) - 1"),
                           parse_literal("sqrt(3) - 1"),
                           parse_literal("1")])


@pytest.fixture(scope="session")
def box3():
    return Polytope.box((0.0, 0.0, 0.0), (0.4, 0.4, 0.4))


@pytest.fixture(scope="session")
def box3_arrangement(box3, box3_direction):
    return arrangement_cells(box3, box3_direction)


@pytest.fixture(scope="session")
def tetra3():
    return Polytope.from_vertices([(0.1, 0.1, 0.1), (0.8, 0.2, 0.15),
                                   (0.3, 0.85, 0.2), (0.35, 0.3, 0.9)])


@pytest.fixture(scope="session")
def tetra3_arrangement(tetra3, box3_direction):
    return arrangement_cells(tetra3, box3_direction)


@pytest.fixture
def rng():
    return np.random.default_rng(911)


# -- acceptance reporting ----------------------------------------------------
#
# Each acceptance test records one human-readable PASS/FAIL line; the lines
# are replayed in a dedicated section of the terminal summary so the outcome
# of every criterion is visible even when pytest captures stdout.


_ACCEPTANCE_KEY = pytest.StashKey[list]()


@pytest.fixture
def acceptance_line(request):
    store = request.config.stash.setdefault(_ACCEPTANCE_KEY, [])

    def record(text: str) -> None:
        store.append(text)
        print(text)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(_ACCEPTANCE_KEY, [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
