import random

import pytest

from homcount.canonical import enumerate_graphs
from homcount.counting import aut_count, hom_count, vesurj_count, vsurj_count
from homcount.graphs import Graph, disjoint_union

from .conftest import random_graph
from .oracles import naive_aut, naive_hom, naive_vesurj, naive_vsurj


def test_frozen_examples(named):
    assert hom_count(named["k3"], named["k3"]) == 6
    assert hom_count(named["p3"], named["p3"]) == 6
    assert aut_count(named["p3"]) == 2
    assert vsurj_count(named["p3"], named["k2"]) == 2
    assert vesurj_count(named["p3"], named["k2"]) == 2
    assert hom_count(named["c5"], named["k3"]) == 30
    assert hom_count(named["p3"], named["p4"]) == 10
    assert vesurj_count(named["two_k1"], named["k2"]) == 0
    assert hom_count(named["p3"], named["k22"]) == 16
    assert hom_count(named["p3"], named["r3"]) == 27


def test_empty_graph_conventions(named):
    empty = named["empty"]
    for h in (named["k2"], named["r3"]):
        assert hom_count(empty, h) == 1
        assert vsurj_count(empty, h) == 0
        assert vesurj_count(empty, h) == 0
    assert hom_count(named["k1"], empty) == 0
    assert hom_count(empty, empty) == 1
    assert vsurj_count(empty, empty) == 1
    assert vesurj_count(empty, empty) == 1
    assert aut_count(empty) == 1


def test_loop_semantics():
    l1 = Graph(1, loops=frozenset({0}))
    k2 = Graph(2, edges=frozenset({(0, 1)}))
    assert hom_count(l1, k2) == 0
    assert hom_count(k2, l1) == 1
    r2 = Graph(2, loops=frozenset({0, 1}), edges=frozenset({(0, 1)}))
    assert hom_count(k2, r2) == 4


def test_matches_naive_on_all_small_class_pairs():
    classes = [rep for _, rep in enumerate_graphs(3)]
    for g in classes:
        for h in classes:
            assert hom_count(g, h) == naive_hom(g, h), (g, h)
            assert vsurj_count(g, h) == naive_vsurj(g, h), (g, h)
            assert vesurj_count(g, h) == naive_vesurj(g, h), (g, h)
    for _, h in enumerate_graphs(5):
        assert aut_count(h) == naive_aut(h), h


def test_matches_naive_on_random_pairs():
    rng = random.Random(11)
    pairs = [(random_graph(rng, 4), random_graph(rng, 3)) for _ in range(80)]
    # Larger sources, so a vertex's candidates are cut by several placed neighbours.
    rng = random.Random(17)
    pairs += [(random_graph(rng, 7, n_min=5), random_graph(rng, 4, n_min=3))
              for _ in range(60)]
    for g, h in pairs:
        assert hom_count(g, h) == naive_hom(g, h), (g, h)
        assert vsurj_count(g, h) == naive_vsurj(g, h), (g, h)
        assert vesurj_count(g, h) == naive_vesurj(g, h), (g, h)


def test_hom_is_multiplicative_over_unions():
    rng = random.Random(12)
    for _ in range(100):
        g = random_graph(rng, 3)
        f = random_graph(rng, 3)
        h = random_graph(rng, 3)
        assert hom_count(disjoint_union(g, f), h) == hom_count(g, h) * hom_count(f, h)


def test_surjective_counts_bounded_by_hom():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, 4)
        h = random_graph(rng, 3)
        hom = hom_count(g, h)
        vs = vsurj_count(g, h)
        ve = vesurj_count(g, h)
        assert 0 <= ve <= vs <= hom


def test_diagonal_equals_automorphisms():
    for _, h in enumerate_graphs(3):
        a = aut_count(h)
        assert vsurj_count(h, h) == a
        assert vesurj_count(h, h) == a


def test_aut_of_symmetric_graphs(named):
    assert aut_count(named["k3"]) == 6
    assert aut_count(named["c5"]) == 10
    assert aut_count(named["k22"]) == 8
    assert aut_count(named["star3"]) == 6
    assert aut_count(Graph(4)) == 24
    assert aut_count(named["r3"]) == 6


def test_vsurj_needs_enough_vertices(named):
    assert vsurj_count(named["k2"], named["k3"]) == 0
    assert vesurj_count(named["k2"], named["k3"]) == 0
