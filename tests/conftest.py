from __future__ import annotations

import pytest

from normrig.enumeration import enumerate_graphs
from normrig.graph import Graph
from normrig.norms import LpPlane

# one PASS/FAIL line per acceptance criterion, echoed after the run
# (fd-level capture would swallow prints made inside the tests)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_graphs():
    """Every graph on 1 to 6 vertices up to isomorphism, enumerated once."""
    return [g for n in range(1, 7) for g in enumerate_graphs(n)]


@pytest.fixture(scope="session")
def pair_classes_7():
    """Every graph on 7 vertices with pair {0, 1}, up to isomorphism."""
    return enumerate_graphs(7, pair=True)


@pytest.fixture
def plane4():
    return LpPlane(4.0)


@pytest.fixture
def k23():
    """Complete bipartite 2x3 with the size-2 part designated."""
    return Graph.from_edges(
        range(5),
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],
        pair=(0, 1),
    )


@pytest.fixture
def two_k4():
    """Two K4s sharing vertex 6, pair (0, 1) in different copies: uv-tight."""
    return Graph.from_edges(
        range(7),
        [(0, 2), (0, 3), (0, 6), (2, 3), (2, 6), (3, 6),
         (1, 4), (1, 5), (1, 6), (4, 5), (4, 6), (5, 6)],
        pair=(0, 1),
    )


@pytest.fixture
def k4_minus_uv():
    return Graph.from_edges(
        range(4), [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], pair=(0, 1)
    )


@pytest.fixture
def h_graph():
    """Two K4s sharing the edge 2-3."""
    return Graph.from_edges(
        range(6),
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
    )


@pytest.fixture
def min_uv_tight():
    """K4 on {0,2,3,4} plus 1~{2,3}: the smallest uv-tight graph."""
    return Graph.from_edges(
        range(5),
        [(0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4), (1, 2), (1, 3)],
        pair=(0, 1),
    )
