"""Tests of the benchmark's own reference counters and statistics.

Run from the repository root:

    python3 -m pytest -q perfbench/test_reference.py
"""

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402
from stats import percentile, tail_percent  # noqa: E402


def cycle(k):
    return ref.graph(k, (), [(i, (i + 1) % k) for i in range(k)])


def path(k):
    return ref.graph(k, (), [(i, i + 1) for i in range(k - 1)])


def clique(k, looped=False):
    return ref.graph(k, range(k) if looped else (), itertools.combinations(range(k), 2))


def enumerate_homs(g, h):
    for phi in itertools.product(range(h[0]), repeat=g[0]):
        if all(phi[v] in h[1] for v in g[1]) and all(
            (phi[u] in h[1]) if phi[u] == phi[v] else ((min(phi[u], phi[v]), max(phi[u], phi[v])) in h[2])
            for u, v in g[2]
        ):
            yield phi


def brute_counts(g, h):
    hom = vsurj = vesurj = 0
    for phi in enumerate_homs(g, h):
        hom += 1
        if set(phi) == set(range(h[0])):
            vsurj += 1
            hit = {(min(phi[u], phi[v]), max(phi[u], phi[v])) for u, v in g[2] if phi[u] != phi[v]}
            if hit == set(h[2]):
                vesurj += 1
    return hom, vsurj, vesurj


def random_graph(rng, n, p_edge, p_loop):
    return ref.graph(
        n,
        [v for v in range(n) if rng.random() < p_loop],
        [e for e in itertools.combinations(range(n), 2) if rng.random() < p_edge],
    )


def random_forest_like(rng, n):
    """A disjoint union of trees and unicyclic pieces, with some loops."""
    parts = []
    left = n
    while left:
        k = rng.randint(1, left)
        edges = [(i, rng.randrange(i)) for i in range(1, k)]
        if k >= 3 and rng.random() < 0.5:
            extra = [(a, b) for a, b in itertools.combinations(range(k), 2)
                     if (a, b) not in {tuple(sorted(e)) for e in edges}]
            edges.append(rng.choice(extra))
        parts.append(ref.graph(k, [v for v in range(k) if rng.random() < 0.2], edges))
        left -= k
    g = ref.disjoint_union(*parts)
    perm = list(range(n))
    rng.shuffle(perm)
    return ref.relabel(g, perm)


def test_hand_known_values():
    assert ref.hom(cycle(5), clique(3)) == 30
    assert ref.aut(clique(3)) == 6
    assert ref.vsurj(path(3), clique(2)) == 2


def test_hom_cycle_is_trace():
    # hom(C_k, K_3) = 2^k + 2(-1)^k
    for k in range(3, 9):
        assert ref.hom(cycle(k), clique(3)) == 2**k + 2 * (-1) ** k


def test_counts_agree_with_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        g = random_forest_like(rng, rng.randint(1, 6))
        h = random_graph(rng, rng.randint(1, 4), 0.6, 0.4)
        hom, vsurj, vesurj = brute_counts(g, h)
        assert ref.hom(g, h) == hom
        assert ref.vsurj(g, h) == vsurj
        assert ref.vesurj(g, h) == vesurj


def test_dense_small_sources_use_enumeration():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 5), 0.7, 0.3)
        h = random_graph(rng, rng.randint(1, 3), 0.6, 0.5)
        assert ref.hom(g, h) == brute_counts(g, h)[0]


def test_aut_against_all_permutations():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6), 0.5, 0.3)
        expected = sum(1 for p in itertools.permutations(range(g[0])) if ref.relabel(g, p) == g)
        assert ref.aut(g) == expected


def brute_least(g):
    return min(ref.encoding_bits(g, p) for p in itertools.permutations(range(g[0])))


def test_least_encoding_against_all_orders():
    rng = random.Random(10)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 6), 0.5, 0.4)
        best = brute_least(g)
        assert ref.is_least_encoding(g) == (ref.encoding_bits(g, list(range(g[0]))) == best)
        # The graph rebuilt from the least bit string is its own least encoding.
        n = g[0]
        pairs = list(itertools.combinations(range(n), 2))
        canon = ref.graph(n, [v for v in range(n) if best[v]],
                          [pairs[i] for i in range(len(pairs)) if best[n + i]])
        assert ref.is_least_encoding(canon)


def test_pack_key_layout():
    # K2: bits 0 0 | 1, padded to one byte: 0b00100000.
    assert ref.pack_key(clique(2)) == "0220"
    assert ref.pack_key(ref.graph(0)) == "00"


def test_classes_with_loops_match_a000666():
    assert [ref.classes_with_loops(n) for n in range(5)] == [1, 2, 6, 20, 90]


def test_tail_percent_rule():
    assert tail_percent(39) is None
    assert tail_percent(40) == 75
    assert tail_percent(100) == 90
    assert tail_percent(120) == 91
    for n in range(40, 400):
        p = tail_percent(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > percentile(values, p))
        assert beyond >= 10
        assert sum(1 for v in values if v > percentile(values, p + 1)) < 10


def test_text_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(0, 7), 0.4, 0.4)
        assert ref.from_text(ref.to_text(g)) == g
