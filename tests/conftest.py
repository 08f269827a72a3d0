import random

import pytest

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

from homcount.graphs import (
    Graph,
    biclique,
    complete_graph,
    cycle_graph,
    path_graph,
    reflexive_clique,
)


def random_graph(rng: random.Random, n_max: int, loops_allowed: bool = True,
                 n_min: int = 0) -> Graph:
    n = rng.randint(n_min, n_max)
    loops = frozenset(v for v in range(n) if loops_allowed and rng.random() < 0.3)
    edges = frozenset(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    )
    return Graph(n, loops, edges)


def relabel(g: Graph, perm) -> Graph:
    """g with each vertex v renamed perm[v]."""
    return Graph(g.n, (perm[v] for v in g.loops), ((perm[u], perm[v]) for u, v in g.edges))


@pytest.fixture
def named():
    return {
        "empty": Graph(0),
        "k1": complete_graph(1),
        "l1": Graph(1, loops=frozenset({0})),
        "k2": complete_graph(2),
        "two_k1": Graph(2),
        "p3": path_graph(3),
        "k3": complete_graph(3),
        "p4": path_graph(4),
        "c5": cycle_graph(5),
        "k22": biclique(2, 2),
        "star3": biclique(3, 1),
        "r2": reflexive_clique(2),
        "r3": reflexive_clique(3),
    }
