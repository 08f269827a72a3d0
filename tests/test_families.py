import random

import pytest

from homcount.canonical import enumerate_graphs
from homcount.counting import hom_count, vesurj_count, vsurj_count
from homcount.errors import InternalCheckError
from homcount.families import (
    ComponentShape,
    classification_json,
    classify_C,
    classify_F,
    find_hard_edge,
    hom_polytime,
    vesurj_polytime,
    vsurj_polytime,
)
from homcount.graphs import (
    Graph,
    biclique,
    complete_graph,
    cycle_graph,
    delete_nonloop_edge,
    disjoint_union,
    path_graph,
    reflexive_clique,
)

from .conftest import random_graph, relabel
from .oracles import naive_families, naive_hard_edge, naive_vesurj, naive_vsurj


def test_component_shapes():
    assert classify_F(Graph(1))[1] == [ComponentShape.biclique(1, 0)]
    assert classify_F(complete_graph(2))[1] == [ComponentShape.biclique(1, 1)]
    assert classify_F(path_graph(3))[1] == [ComponentShape.biclique(2, 1)]
    assert classify_F(biclique(3, 2))[1] == [ComponentShape.biclique(3, 2)]
    assert classify_F(Graph(1, loops=frozenset({0})))[1] == [ComponentShape.reflexive_clique(1)]
    assert classify_F(reflexive_clique(3))[1] == [ComponentShape.reflexive_clique(3)]
    assert classify_F(complete_graph(3))[1] == [ComponentShape.unrecognized()]
    assert classify_F(cycle_graph(4))[1] == [ComponentShape.biclique(2, 2)]
    assert classify_F(cycle_graph(6))[1] == [ComponentShape.unrecognized()]
    assert classify_F(path_graph(4))[1] == [ComponentShape.unrecognized()]
    half_loop = Graph(2, loops=frozenset({0}), edges=frozenset({(0, 1)}))
    assert classify_F(half_loop)[1] == [ComponentShape.unrecognized()]
    missing_edge = Graph(3, loops=frozenset({0, 1, 2}), edges=frozenset({(0, 1), (1, 2)}))
    assert classify_F(missing_edge)[1] == [ComponentShape.unrecognized()]
    # Shapes are per component: two edges short, the looped triangle splits.
    split = Graph(3, loops=frozenset({0, 1, 2}), edges=frozenset({(0, 1)}))
    assert classify_F(split)[1] == [ComponentShape.reflexive_clique(2),
                                    ComponentShape.reflexive_clique(1)]


def test_shape_labels():
    assert ComponentShape.biclique(2, 2).label() == "biclique(2,2)"
    assert ComponentShape.biclique(0, 1).label() == "biclique(1,0)"
    assert ComponentShape.reflexive_clique(2).label() == "reflexive_clique(2)"
    assert ComponentShape.unrecognized().label() == "unrecognized"


def test_classify_families(named):
    in_f, shapes = classify_F(named["k22"])
    assert in_f and [s.label() for s in shapes] == ["biclique(2,2)"]
    assert classify_C(named["k22"])[0] is False
    assert classify_F(named["k3"])[0] is False
    assert classify_F(named["empty"]) == (True, [])
    assert classify_C(named["empty"])[0] is True
    assert classify_F(named["c5"])[0] is False
    assert classify_C(named["star3"])[0] is True
    assert classify_C(named["r2"])[0] is True
    assert classify_C(named["r3"])[0] is False
    assert classify_F(named["r3"])[0] is True
    mix = disjoint_union(named["star3"], named["r2"])
    assert classify_C(mix)[0] is True
    assert classify_F(disjoint_union(mix, named["k3"]))[0] is False


def test_c_is_subset_of_f():
    for _, h in enumerate_graphs(4):
        in_f = classify_F(h)[0]
        in_c = classify_C(h)[0]
        assert not (in_c and not in_f), h


def test_find_hard_edge_on_k22(named):
    e = find_hard_edge(named["k22"])
    assert e == (0, 2)
    assert classify_F(delete_nonloop_edge(named["k22"], e))[0] is False


def test_find_hard_edge_on_reflexive_clique(named):
    e = find_hard_edge(named["r3"])
    assert classify_F(delete_nonloop_edge(named["r3"], e))[0] is False


def test_find_hard_edge_skips_harmless_components(named):
    h = disjoint_union(named["star3"], named["k22"])
    e = find_hard_edge(h)
    assert e == (4, 6)
    assert classify_F(delete_nonloop_edge(h, e))[0] is False


def test_find_hard_edge_preconditions(named):
    with pytest.raises(ValueError):
        find_hard_edge(named["k3"])
    with pytest.raises(ValueError):
        find_hard_edge(named["star3"])


def test_every_f_minus_c_graph_has_a_hard_edge():
    for _, h in enumerate_graphs(4):
        if classify_F(h)[0] and not classify_C(h)[0]:
            e = find_hard_edge(h)
            assert not classify_F(delete_nonloop_edge(h, e))[0], h


def _check_against_naive(h):
    in_f, in_c, labels = naive_families(h)
    hard = naive_hard_edge(h) if in_f else None
    assert classification_json(h) == {
        "in_F": in_f, "in_C": in_c, "components": labels,
        "hard_edge": list(hard) if hard else None,
    }, h
    # Every target in F but not in C has a hard edge, and no target in C has one.
    assert (hard is not None) == (in_f and not in_c), h
    if hard:
        assert find_hard_edge(h) == hard, h


def test_classification_matches_naive_oracles_up_to_five_vertices():
    for _, h in enumerate_graphs(5):
        _check_against_naive(h)


def _random_family_target(rng):
    """A relabelled union of 2-6 family components on at most 30 vertices,
    one in four with a component outside F added."""
    parts, n = [], 0
    for _ in range(rng.randint(2, 6)):
        if rng.random() < 0.5:
            part = biclique(rng.randint(1, 4), rng.randint(0, 4))
        else:
            part = reflexive_clique(rng.randint(1, 4))
        if n + part.n <= 30:
            parts.append(part)
            n += part.n
    if rng.random() < 0.25:
        parts.insert(rng.randrange(len(parts) + 1),
                     rng.choice([complete_graph(3), path_graph(4), cycle_graph(6),
                                 Graph(2, loops={0}, edges={(0, 1)})]))
    h = Graph(0)
    for part in parts:
        h = disjoint_union(h, part)
    perm = list(range(h.n))
    rng.shuffle(perm)
    return relabel(h, perm)


def test_classification_matches_naive_oracles_on_random_family_unions():
    rng = random.Random(61)
    targets = [_random_family_target(rng) for _ in range(1000)]
    assert max(h.n for h in targets) > 20
    assert sum(classify_F(h)[0] and not classify_C(h)[0] for h in targets) > 300
    for h in targets:
        _check_against_naive(h)


def test_hom_polytime_matches_brute_force():
    rng = random.Random(31)
    targets = [rep for _, rep in enumerate_graphs(3) if classify_F(rep)[0]]
    sources = [rep for _, rep in enumerate_graphs(3)]
    for h in targets:
        for g in sources:
            assert hom_polytime(g, h) == hom_count(g, h), (g, h)
        for _ in range(5):
            g = random_graph(rng, 5)
            assert hom_polytime(g, h) == hom_count(g, h), (g, h)


def test_vsurj_polytime_matches_brute_force():
    targets = [rep for _, rep in enumerate_graphs(3) if classify_F(rep)[0]]
    sources = [rep for _, rep in enumerate_graphs(3)]
    for h in targets:
        for g in sources:
            assert vsurj_polytime(g, h) == vsurj_count(g, h), (g, h)


def test_vesurj_polytime_matches_brute_force():
    targets = [rep for _, rep in enumerate_graphs(3) if classify_C(rep)[0]]
    sources = [rep for _, rep in enumerate_graphs(3)]
    for h in targets:
        for g in sources:
            assert vesurj_polytime(g, h) == vesurj_count(g, h), (g, h)


def _oracle_sources(rng, h):
    """Three sources per target, each small enough that naive_* enumerates
    every map: two random looped graphs, and a relabeled copy of h plus one
    vertex, which maps onto h."""
    n_max = max(n for n in range(h.n, 8) if h.n**n <= 16000 or n == h.n)
    extra = Graph(1, loops=frozenset({0}) if h.loops and rng.random() < 0.5 else ())
    perm = list(range(h.n))
    rng.shuffle(perm)
    return [random_graph(rng, n_max, n_min=h.n), random_graph(rng, n_max, n_min=h.n),
            disjoint_union(relabel(h, perm), extra)]


@pytest.mark.parametrize("mode", ["vsurj", "vesurj"])
def test_surjective_polytime_matches_naive_oracles_up_to_five_vertices(mode):
    classify, polytime, naive = {
        "vsurj": (classify_F, vsurj_polytime, naive_vsurj),
        "vesurj": (classify_C, vesurj_polytime, naive_vesurj),
    }[mode]
    rng = random.Random(53)
    targets = [rep for _, rep in enumerate_graphs(5) if classify(rep)[0]]
    assert len(targets) == {"vsurj": 78, "vesurj": 62}[mode]
    nonzero = 0
    for h in targets:
        for g in _oracle_sources(rng, h):
            want = naive(g, h)
            assert polytime(g, h) == want, (g, h)
            nonzero += want != 0
    assert nonzero >= len(targets)


def test_polytime_preconditions(named):
    with pytest.raises(ValueError):
        vsurj_polytime(named["p3"], named["k3"])
    with pytest.raises(ValueError):
        vesurj_polytime(named["p3"], named["k22"])
    with pytest.raises(ValueError):
        hom_polytime(named["p3"], named["k3"])


def test_hom_polytime_scales_to_wide_sources(named):
    h = disjoint_union(biclique(2, 3), named["r2"])
    g = disjoint_union(cycle_graph(31), path_graph(29))
    got = hom_polytime(g, h)
    odd_cycle = 0 + 2**31
    path = (3**15 * 2**14 + 3**14 * 2**15) + 2**29
    assert got == odd_cycle * path


def test_classification_json(named):
    record = classification_json(named["k22"])
    assert record == {
        "components": ["biclique(2,2)"],
        "hard_edge": [0, 2],
        "in_C": False,
        "in_F": True,
    }
    record = classification_json(named["star3"])
    assert record["in_C"] is True and record["hard_edge"] is None
    record = classification_json(named["k3"])
    assert record["in_F"] is False and record["hard_edge"] is None
    assert record["components"] == ["unrecognized"]
