import random

import pytest

from homcount import kernels
from homcount.canonical import enumerate_graphs
from homcount.errors import GraphParseError
from homcount.graphs import (
    Graph,
    _components,
    biclique,
    complete_graph,
    component_vertex_sets,
    connected_components,
    cycle_graph,
    delete_nonloop_edge,
    disjoint_union,
    induced_subgraph,
    parse_graph,
    path_graph,
    quotient,
    reflexive_clique,
    to_text,
)

from .oracles import naive_components


def test_edge_normalization():
    g = Graph(3, edges=frozenset({(2, 0)}))
    assert g.edges == frozenset({(0, 2)})
    assert g.has_edge(0, 2) and g.has_edge(2, 0)


def test_rejects_bad_vertices():
    with pytest.raises(ValueError):
        Graph(2, edges=frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(2, edges=frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(1, loops=frozenset({3}))
    with pytest.raises(ValueError):
        Graph(-1)


def test_size_counts_vertices_loops_edges():
    g = Graph(3, loops=frozenset({0}), edges=frozenset({(0, 1), (1, 2)}))
    assert g.size == 6
    assert Graph(0).size == 0


def test_builders():
    assert complete_graph(4).edges == frozenset(
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    )
    assert path_graph(1) == Graph(1)
    assert cycle_graph(3) == complete_graph(3)
    with pytest.raises(ValueError):
        cycle_graph(2)
    assert biclique(2, 2) == Graph(4, edges=frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}))
    r2 = reflexive_clique(2)
    assert r2.loops == frozenset({0, 1}) and r2.edges == frozenset({(0, 1)})


def test_induced_subgraph_reindexes():
    g = Graph(4, loops=frozenset({2}), edges=frozenset({(0, 2), (2, 3)}))
    sub = induced_subgraph(g, [2, 3])
    assert sub == Graph(2, loops=frozenset({0}), edges=frozenset({(0, 1)}))
    assert induced_subgraph(g, []) == Graph(0)


def test_disjoint_union_shifts_second():
    g = disjoint_union(complete_graph(2), Graph(1, loops=frozenset({0})))
    assert g == Graph(3, loops=frozenset({2}), edges=frozenset({(0, 1)}))
    assert disjoint_union(Graph(0), complete_graph(2)) == complete_graph(2)


def test_quotient_collapses_edges_to_loops():
    k2 = complete_graph(2)
    assert quotient(k2, [{0, 1}]) == Graph(1, loops=frozenset({0}))
    p3 = path_graph(3)
    assert quotient(p3, [{0, 2}, {1}]) == complete_graph(2)
    with pytest.raises(ValueError):
        quotient(k2, [{0}])
    with pytest.raises(ValueError):
        quotient(k2, [{0, 1}, {1}])


def test_quotient_class_order_is_by_smallest_member():
    g = Graph(3, loops=frozenset({2}), edges=frozenset({(0, 1)}))
    q = quotient(g, [{2}, {0, 1}])
    assert q == Graph(2, loops=frozenset({0, 1}))


def test_delete_nonloop_edge():
    k3 = complete_graph(3)
    assert delete_nonloop_edge(k3, (1, 0)) == Graph(3, edges=frozenset({(0, 2), (1, 2)}))
    with pytest.raises(ValueError):
        delete_nonloop_edge(k3, (0, 0))
    with pytest.raises(ValueError):
        delete_nonloop_edge(path_graph(3), (0, 2))


def test_connected_components_ignore_loops():
    g = disjoint_union(path_graph(3), Graph(1, loops=frozenset({0})))
    comps = connected_components(g)
    assert [c.n for c in comps] == [3, 1]
    assert comps[1].loops == frozenset({0})
    assert connected_components(Graph(0)) == []


def test_component_walk_matches_naive_components():
    # Every class with at most 5 vertices, then random looped graphs on
    # 0-40 vertices, from nearly empty (isolated vertices) to dense enough
    # for odd cycles.
    rng = random.Random(2301)
    graphs = [rep for _, rep in enumerate_graphs(5)]
    for _ in range(300):
        n, p = rng.randint(0, 40), rng.choice((0.02, 0.05, 0.1, 0.3))
        graphs.append(Graph(n, [v for v in range(n) if rng.random() < 0.2],
                            [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p]))
    seen = set()
    for g in graphs:
        naive = naive_components(g)
        comps = _components(g)
        assert [(sorted(vs), loops, edges, parts) for vs, loops, edges, parts in comps] == naive, g
        assert all(vs[0] == min(vs) for vs, _, _, _ in comps)
        assert component_vertex_sets(g) == [vs for vs, _, _, _ in naive]
        assert kernels._tables(g)[3] == len(naive)
        for vs, loops, edges, parts in naive:
            seen.add("isolated" if len(vs) == 1 else "odd cycle" if parts is None else "bipartite")
            seen.add("looped" if loops else "loopless")
    assert seen == {"isolated", "odd cycle", "bipartite", "looped", "loopless"}


def test_text_roundtrip(named):
    for g in named.values():
        assert parse_graph(to_text(g)) == g


def test_parse_accepts_comments_and_blanks():
    text = "# a triangle\nvertices 3\n\nedge 0 1\nedge 1 2  # path so far\nedge 0 2\n"
    assert parse_graph(text) == complete_graph(3)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "edge 0 1\n",
        "vertices 2\nvertices 2\n",
        "vertices 2\nedge 0 1\nedge 1 0\n",
        "vertices 1\nloop 0\nloop 0\n",
        "vertices 2\nedge 0 0\n",
        "vertices 2\nedge 0 2\n",
        "vertices two\n",
        "vertices 2\nedge 0\n",
        "vertices 2\narc 0 1\n",
        "vertices -1\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


def test_parse_refuses_vertex_counts_over_two_to_the_20():
    assert parse_graph(f"vertices {1 << 20}\n").n == 1 << 20
    for n in ((1 << 20) + 1, 10**14):
        with pytest.raises(GraphParseError, match=f"line 2: vertex count {n} is over"):
            parse_graph(f"# header\nvertices {n}\n")


def test_parse_error_carries_line_number():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph("vertices 2\nedge 0 1\nedge 5 6\n")


def test_to_text_is_sorted_and_deterministic():
    g = Graph(3, loops=frozenset({2, 0}), edges=frozenset({(1, 2), (0, 1)}))
    assert to_text(g) == "vertices 3\nloop 0\nloop 2\nedge 0 1\nedge 1 2\n"
