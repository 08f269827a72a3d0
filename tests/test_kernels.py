import random
import time
import tracemalloc

import pytest

import homcount
from homcount import kernels
from homcount.canonical import canonical_key, enumerate_graphs
from homcount.counting import aut_count, hom_count
from homcount.graphs import (
    Graph,
    adjacency_masks,
    biclique,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from homcount.interpolation import (
    CountingOracle,
    alpha_for_vesurj,
    alpha_for_vsurj,
    build_system,
    recover_hom,
)
from homcount.inversion import verify_expansions, vesurj_via_inversion, vsurj_via_inversion

from .oracles import naive_components, naive_hom, naive_vesurj, naive_vsurj


def test_backend_name_is_pure():
    assert kernels.backend_name() == "pure"
    assert homcount.backend_name() == "pure"


def test_wide_target_counts_exactly():
    h = Graph(40, edges=frozenset({(0, 1)}))
    assert hom_count(complete_graph(2), h) == 2


def test_mode_constants_are_distinct():
    assert len({kernels.MODE_HOM, kernels.MODE_VSURJ, kernels.MODE_VESURJ}) == 3


def test_kernels_take_graphs():
    c5, k3 = cycle_graph(5), complete_graph(3)
    assert kernels.count_maps(c5, k3, kernels.MODE_HOM) == 30
    assert kernels.count_maps(c5, k3, kernels.MODE_VSURJ) == 30
    assert kernels.count_maps(c5, k3, kernels.MODE_VESURJ) == 30
    assert kernels.min_encoding(5, 0, adjacency_masks(c5))[1] == 10


def _agrees_with_oracles(g, h):
    for mode, naive in ((kernels.MODE_HOM, naive_hom), (kernels.MODE_VSURJ, naive_vsurj),
                        (kernels.MODE_VESURJ, naive_vesurj)):
        assert kernels.count_maps(g, h, mode) == naive(g, h), (g, h, mode)


def _random_looped(rng, n, p_edge, p_loop):
    return Graph(n, [v for v in range(n) if rng.random() < p_loop],
                 [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_edge])


def _step_shapes(g):
    """(what the step keeps of the frontier, whether it pushes) for each
    step of g's schedule but the last."""
    steps, _, widths = kernels._schedule(g)
    shapes = set()
    for w, (_, _, pick, push, _, _) in enumerate(steps):
        frontier = tuple(range(widths[w - 1] if w else 0))
        kept = frontier if pick is None else pick(frontier)
        shapes.add(("all" if kept == frontier else "some" if kept else "none", push))
    return shapes


def test_modes_match_oracles_on_random_looped_pairs():
    rng = random.Random(23)
    pairs = []
    for _ in range(40):
        g = _random_looped(rng, rng.randint(1, 9), rng.uniform(0.15, 0.5), 0.2)
        # At most 4^7 or 3^9 maps for the oracles to enumerate.
        h = _random_looped(rng, rng.randint(1, 4 if g.n <= 7 else 3), 0.6, 0.4)
        pairs.append((g, h))
    # Sources for every step shape, each with and without loops: the star
    # keeps its centre and pushes no leaf; C4 keeps its whole frontier, then
    # part of it, and pushes both times; the spider keeps one leg's middle
    # while placing the other leg's end; in the forest (isolated vertices,
    # K2, P3) steps keep nothing, with and without a push; the diamonds are
    # placed in depth-first preorder.
    sources = [
        Graph(4, (), {(0, 1), (0, 2), (0, 3)}),
        cycle_graph(4),
        Graph(5, (), {(0, 1), (0, 2), (1, 3), (2, 4)}),
        Graph(7, (), {(1, 2), (4, 5), (5, 6)}),
        Graph(4, (), {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}),
        Graph(5, (), {(2, 3), (2, 4), (0, 4), (3, 4), (1, 3), (1, 4)}),
    ]
    targets = [complete_graph(3), Graph(3, {0, 2}, {(0, 1), (1, 2)}),
               Graph(4, {3}, {(0, 1), (1, 2), (2, 3)})]
    for g in sources:
        for looped in (g.loops, frozenset(range(0, g.n, 2))):
            pairs += [(Graph(g.n, looped, g.edges), h) for h in targets]
    shapes = set()
    for g, h in pairs:
        _agrees_with_oracles(g, h)
        shapes |= _step_shapes(g)
    assert shapes == {(kept, push) for kept in ("all", "some", "none") for push in (False, True)}
    assert kernels._plan(sources[4])[0] == [0, 1, 3, 2]


def test_surjective_modes_are_zero_onto_targets_with_more_components():
    rng = random.Random(31)
    pairs = [(Graph(0), Graph(0)), (Graph(0), Graph(1)), (Graph(3), Graph(3)),
             (Graph(3), Graph(3, {2}, {(0, 1)})), (complete_graph(3), Graph(2, {0, 1})),
             (Graph(4, {0}, {(1, 2), (2, 3)}), Graph(3, {0, 2}, {(0, 1)}))]
    for _ in range(60):
        # Sparse graphs, the targets sparser, so most have several
        # components and many have isolated vertices.
        g = _random_looped(rng, rng.randint(0, 6), rng.uniform(0.1, 0.6), 0.3)
        h = _random_looped(rng, rng.randint(0, 4), rng.uniform(0.0, 0.3), 0.4)
        pairs.append((g, h))
    fewer = 0
    for g, h in pairs:
        _agrees_with_oracles(g, h)
        if len(naive_components(g)) < len(naive_components(h)) and h.n <= g.n:
            fewer += 1
            assert kernels.count_maps(g, h, kernels.MODE_VSURJ) == 0, (g, h)
            assert kernels.count_maps(g, h, kernels.MODE_VESURJ) == 0, (g, h)
    assert fewer >= 10


def _grid(k):
    return Graph(k * k, (), [(k * i + j, k * i + j + 1) for i in range(k) for j in range(k - 1)]
                 + [(k * i + j, k * i + k + j) for i in range(k - 1) for j in range(k)])


def _petersen():
    return Graph(10, (), [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)])


def test_modes_match_oracles_on_wide_frontier_sources():
    looped_p3 = Graph(3, {0, 2}, {(0, 1), (1, 2)})
    for g in (_petersen(), biclique(3, 3), _grid(3)):
        for h in (complete_graph(3), looped_p3, complete_graph(2)):
            _agrees_with_oracles(g, h)
    assert hom_count(_petersen(), complete_graph(3)) == 120


def test_edge_cases_match_oracles():
    single = [Graph(1), Graph(1, {0})]
    targets = [
        Graph(1), Graph(1, {0}), Graph(2), Graph(2, {1}),  # no edges for vesurj to cover
        complete_graph(3),  # no looped vertex for a looped source vertex
        Graph(4, {3}, {(0, 1), (1, 2)}),  # an isolated looped vertex
        Graph(4, (), {(0, 1)}),  # two isolated vertices
    ]
    sources = single + [
        Graph(3, {0}, {(0, 1), (1, 2)}),
        Graph(4, {1, 3}, {(0, 1), (2, 3)}),
        Graph(5, (), {(0, 1), (1, 2)}),
        Graph(5, {4}, {(0, 1), (1, 2), (2, 0)}),
    ]
    for g in sources:
        for h in targets:
            _agrees_with_oracles(g, h)
    assert kernels.count_maps(Graph(1, {0}), complete_graph(3), kernels.MODE_HOM) == 0
    assert kernels.count_maps(Graph(0), Graph(0), kernels.MODE_VESURJ) == 1
    assert kernels.count_maps(Graph(0), Graph(1), kernels.MODE_VSURJ) == 0
    assert kernels.count_maps(Graph(2), Graph(0), kernels.MODE_HOM) == 0


def test_long_cycles_into_cliques_match_the_chromatic_polynomial():
    for n in (16, 30):
        for k in (3, 4):
            assert hom_count(cycle_graph(n), complete_graph(k)) == (k - 1) ** n + (-1) ** n * (k - 1)


def test_state_bound_sums_frontier_bounds():
    k2, k3 = complete_graph(2), complete_graph(3)
    # P3 in BFS order keeps one vertex on its frontier: 2 + 2 + 1 states.
    assert kernels.state_bound(path_graph(3), k2, kernels.MODE_HOM) == 5
    # C5 keeps frontiers of 1, 2, 2, 2, 0 vertices: 3 + 9 + 9 + 9 + 1.
    assert kernels.state_bound(cycle_graph(5), k3, kernels.MODE_HOM) == 31
    # The cover masks multiply the frontier term but never pass n^(w+1).
    assert kernels.state_bound(cycle_graph(5), k3, kernels.MODE_VSURJ) == 3 + 9 + 27 + 72 + 8
    assert kernels.state_bound(cycle_graph(5), k3, kernels.MODE_VESURJ) == 3 + 9 + 27 + 81 + 64
    assert kernels.state_bound(Graph(0), k3, kernels.MODE_HOM) == 0
    assert kernels.state_bound(cycle_graph(30), complete_graph(4), kernels.MODE_HOM) < 2000


def _assert_state_bound_formula(g):
    # min(n^(w+1), n^f * c) summed over the positions of g's own schedule,
    # as state_bound's docstring defines it, for targets of 0, 1, 2 and
    # more vertices.
    widths = kernels._schedule(g)[2]
    for h in (Graph(0), Graph(1), Graph(1, loops={0}), complete_graph(2),
              Graph(2, loops={0}, edges={(0, 1)}), complete_graph(3), cycle_graph(5),
              Graph(7, loops={1}, edges=cycle_graph(7).edges)):
        n = h.n
        for mode, c in ((kernels.MODE_HOM, 1), (kernels.MODE_VSURJ, 1 << n),
                        (kernels.MODE_VESURJ, 1 << (n + len(h.edges)))):
            want = sum(min(n ** (w + 1), n ** f * c) for w, f in enumerate(widths))
            assert kernels.state_bound(g, h, mode) == want, (g, h, mode)


def test_state_bound_equals_the_direct_formula():
    for g in (Graph(0), Graph(4), path_graph(3), cycle_graph(5), path_graph(40),
              _binary_tree(63), _grid(6), complete_graph(5)):
        _assert_state_bound_formula(g)


def test_state_bound_is_cheap_on_long_sources():
    p, k3 = path_graph(20000), complete_graph(3)
    kernels._schedule(p)
    start = time.perf_counter()
    # Frontiers of one vertex, then none: 3 states per position, 1 at the last.
    assert kernels.state_bound(p, k3, kernels.MODE_HOM) == 3 * 19999 + 1
    assert time.perf_counter() - start < 0.1


def _binary_tree(n):
    return Graph(n, (), [((v - 1) // 2, v) for v in range(1, n)])


def test_sources_take_dfs_preorder_only_when_its_frontier_is_narrower():
    k3 = complete_graph(3)
    # In BFS order the 63-vertex tree keeps up to 16 vertices on the
    # frontier (bound 2.15e8); in DFS preorder it keeps at most 5.
    assert kernels.state_bound(_binary_tree(63), k3, kernels.MODE_HOM) <= 2048
    assert kernels.state_bound(_binary_tree(255), k3, kernels.MODE_HOM) < 40000
    # Ties keep BFS order: C5 keeps 2 vertices either way and the 6x6 grid
    # 6, and the grid's BFS bound, 10,210, is below its DFS bound (18,950).
    assert kernels._plan(cycle_graph(5))[0] == [0, 1, 4, 2, 3]
    assert kernels.state_bound(_grid(6), k3, kernels.MODE_HOM) == 10210
    for n in (63, 255):
        start = time.perf_counter()
        assert hom_count(_binary_tree(n), k3) == 3 * 2 ** (n - 1)
        assert time.perf_counter() - start < 0.1


def test_long_paths_are_planned_in_linear_time():
    # Each position's placed neighbours come from the source's edges, not
    # from a scan of every earlier position.
    g = path_graph(20000)
    start = time.perf_counter()
    assert hom_count(g, complete_graph(3)) == 3 * 2 ** 19999
    assert time.perf_counter() - start < 2.0


def test_surjective_modes_match_oracles_on_equal_size_pairs():
    # Equal vertex counts make a vertex-surjective map a bijection; the
    # zero rule for such pairs must not drop one with a map.
    classes = [rep for _, rep in enumerate_graphs(3)]
    pairs = [(g, h) for g in classes for h in classes if g.n == h.n]
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(4, 6)
        pairs.append((_random_looped(rng, n, rng.random(), rng.random()),
                      _random_looped(rng, n, rng.random(), rng.random())))
    for g, h in pairs:
        assert kernels.count_maps(g, h, kernels.MODE_VSURJ) == naive_vsurj(g, h), (g, h)
        assert kernels.count_maps(g, h, kernels.MODE_VESURJ) == naive_vesurj(g, h), (g, h)


def test_equal_size_pairs_with_more_source_edges_or_loops_run_no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("ran the dynamic program on a pair with no bijection")

    monkeypatch.setattr(kernels, "_count_surjective", refuse)
    monkeypatch.setattr(kernels, "_fold", refuse)
    k3, p3 = complete_graph(3), path_graph(3)
    looped = Graph(3, [0, 1], [(0, 1), (1, 2)])
    for g, h in ((k3, p3), (looped, p3), (Graph(3, [0]), Graph(3)),
                 (Graph(4, [0, 1, 2, 3]), Graph(4, [0, 1, 2], [(0, 1), (2, 3)]))):
        for mode in (kernels.MODE_VSURJ, kernels.MODE_VESURJ):
            assert kernels.count_maps(g, h, mode) == 0, (g, h, mode)
    with pytest.raises(AssertionError, match="dynamic program"):
        kernels.count_maps(p3, k3, kernels.MODE_VSURJ)
    with pytest.raises(AssertionError, match="dynamic program"):
        kernels.count_maps(Graph(3), Graph(3, [0]), kernels.MODE_VSURJ)


def test_disconnected_equal_size_sources_are_folded_from_injective_profiles(monkeypatch):
    def refuse(*args):
        raise AssertionError("ran the loop over a disconnected source")

    folded = []
    fold = kernels._fold
    profiles = []
    profile = kernels._profile

    def folding(g, parts, h, edges_too):
        folded.append(g)
        return fold(g, parts, h, edges_too)

    def profiling(part, *args):
        profiles.append((part[0], profile(part, *args)))
        return profiles[-1][1]

    monkeypatch.setattr(kernels, "_count_surjective", refuse)
    monkeypatch.setattr(kernels, "_fold", folding)
    monkeypatch.setattr(kernels, "_profile", profiling)
    g = h = disjoint_union(path_graph(3), cycle_graph(4))
    # A bijection onto h: one of P3's 2 automorphisms, then one of C4's 8.
    for mode in (kernels.MODE_VSURJ, kernels.MODE_VESURJ):
        assert kernels.count_maps(g, h, mode) == 16
    assert folded == [g, g]
    # With the other component's vertices still to place, each component
    # must cover as many vertices of h as it has: P3's profile keeps its 2
    # maps onto h's P3 and its 8 into h's C4, none that fold P3 onto an
    # edge, and C4's its 8 onto h's C4.
    assert [(k, sum(maps[1::2])) for k, maps in profiles] == [(3, 10), (4, 8)] * 2
    assert all((cover & 127).bit_count() == k for k, maps in profiles for cover in maps[::2])


def test_edgeless_target_tables_stay_linear():
    # Only vesurj reads the edge bits; they take one entry per loop and
    # edge end, not a table over every vertex pair.
    kernels._tables.cache_clear()
    tracemalloc.start()
    try:
        assert hom_count(Graph(1), Graph(3000)) == 3000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


# The source-side caches: per source, per component and per (component,
# target, mode).
_SOURCE_CACHES = (kernels._schedule, kernels._split, kernels._closed_steps, kernels._profile)


def test_kernel_caches_are_bounded():
    for cache in _SOURCE_CACHES + (kernels._tables,):
        assert cache.cache_info().maxsize == kernels.KERNEL_CACHE_SIZE


def _component_graphs(g):
    """g's components as graphs on their vertices renumbered in increasing
    order, from the oracle's component walk."""
    out = []
    for comp, _, _, _ in naive_components(g):
        index = {v: i for i, v in enumerate(comp)}
        out.append(Graph(len(comp), [index[v] for v in g.loops if v in index],
                         [(index[u], index[v]) for u, v in g.edges if u in index]))
    return out


def _clear_source_caches():
    for cache in _SOURCE_CACHES:
        cache.cache_clear()


def test_verify_builds_one_schedule_per_source_class():
    # A class with at most one component is planned as itself, a
    # disconnected one only through its components, each planned once
    # however many classes and targets share it.  Of the 29 classes, 15 are
    # connected, 13 disconnected, each of their components one of the 15,
    # and the empty graph has no component.
    _clear_source_caches()
    report = verify_expansions(3)
    assert report["classes"] == 29
    classes = [rep for _, rep in enumerate_graphs(3)]
    planned = {rep for rep in classes if len(_component_graphs(rep)) < 2}
    planned |= {c for rep in classes for c in _component_graphs(rep)}
    assert len(planned) == 16
    assert kernels._schedule.cache_info().misses == len(planned)


def test_fold_matches_oracles_on_disconnected_class_pairs():
    classes = [rep for _, rep in enumerate_graphs(4)]
    sources = [g for g in classes if len(naive_components(g)) > 1]
    assert len(sources) == 53
    for g in sources:
        for h in classes:
            assert kernels.count_maps(g, h, kernels.MODE_VSURJ) == naive_vsurj(g, h), (g, h)
            assert kernels.count_maps(g, h, kernels.MODE_VESURJ) == naive_vesurj(g, h), (g, h)


def _random_union(rng, parts, n_max):
    """A looped graph of parts connected components, at most n_max
    vertices in all, its vertices shuffled so components interleave."""
    sizes = [1] * parts
    for _ in range(rng.randint(0, n_max - parts)):
        sizes[rng.randrange(parts)] += 1
    loops, edges, base = [], [], 0
    for k in sizes:
        # A random tree keeps the part connected; extra edges and loops vary it.
        edges += [(base + rng.randrange(v), base + v) for v in range(1, k)]
        edges += [(base + u, base + v) for v in range(k) for u in range(v) if rng.random() < 0.3]
        loops += [base + v for v in range(k) if rng.random() < 0.25]
        base += k
    perm = list(range(base))
    rng.shuffle(perm)
    return Graph(base, [perm[v] for v in loops], [(perm[u], perm[v]) for u, v in edges])


def test_fold_matches_oracles_on_random_looped_unions():
    rng = random.Random(33)
    nonzero = 0
    for _ in range(70):
        g = _random_union(rng, rng.randint(2, 4), 8)
        # At most 5^6, 4^7 or 3^8 maps for the oracles to enumerate.
        h = _random_looped(rng, rng.randint(1, min(g.n, 5 if g.n <= 6 else 4 if g.n == 7 else 3)),
                           rng.uniform(0.4, 0.9), 0.5)
        assert len(naive_components(g)) >= 2
        for mode, naive in ((kernels.MODE_VSURJ, naive_vsurj), (kernels.MODE_VESURJ, naive_vesurj)):
            want = naive(g, h)
            assert kernels.count_maps(g, h, mode) == want, (g, h, mode)
            nonzero += want > 0
    assert nonzero >= 30


def test_fold_matches_the_inversion_routes_on_large_unions():
    c8, c6, k3 = cycle_graph(8), cycle_graph(6), complete_graph(3)
    two_c6 = disjoint_union(c6, c6)
    two_k3 = disjoint_union(k3, k3)
    four_k3 = disjoint_union(two_k3, two_k3)
    vsurj, vesurj = ((kernels.MODE_VSURJ, vsurj_via_inversion),
                     (kernels.MODE_VESURJ, vesurj_via_inversion))
    cases = [(disjoint_union(c8, c8), complete_graph(5), (vsurj, vesurj)),
             (disjoint_union(two_c6, c6), complete_graph(5), (vsurj, vesurj)),
             (Graph(12), complete_graph(6), (vsurj, vesurj)),
             (disjoint_union(cycle_graph(5), cycle_graph(5)), complete_graph(10), (vsurj,))]
    # Onto a copy of itself a source's surjective maps are its automorphisms
    # in both modes, which checks vesurj here: its inversion route took 6 s
    # on 2xC6 and 2 s on 4xK3.
    autos = (kernels.MODE_VESURJ, lambda g, h: aut_count(h))
    cases += [(g, g, (vsurj, autos)) for g in (two_c6, four_k3, Graph(12))]
    _clear_source_caches()
    spent = 0.0
    for g, h, modes in cases:
        for mode, via in modes:
            start = time.perf_counter()
            count = kernels.count_maps(g, h, mode)
            spent += time.perf_counter() - start
            assert count == via(g, h), (g, h, mode)
    # On a 2-vCPU Xeon the loop over each whole union took about 0.6 s in
    # all, the fold 0.06 s.
    assert spent < 0.3, spent


def test_profiles_prune_by_what_the_other_components_can_cover():
    # K1 adds no edge, so C10 must cover all 10 edges of K5 by itself: its
    # profile keeps no map that misses one, as the loop over C10 + K1 would
    # drop it, where an unpruned profile keeps every map's coverage.
    g, h = disjoint_union(cycle_graph(10), Graph(1)), complete_graph(5)
    _clear_source_caches()
    assert kernels.count_maps(g, h, kernels.MODE_VESURJ) == vesurj_via_inversion(g, h) == 13200
    cycle = kernels._split(g)[1][0]
    profile = kernels._profile(cycle, h, True, 1, 0)
    assert kernels._profile.cache_info().misses == 1
    assert profile and all(cover >> 5 == (1 << 10) - 1 for cover in profile[::2])


def test_recovery_queries_plan_no_disconnected_union(monkeypatch):
    # Each query asks about g + F for a member F of the closed set: only
    # the components of such unions are planned, each once.
    schedule = kernels._schedule
    planned = []
    querying = []

    def recording(g):
        if querying:
            planned.append(g)
        return schedule(g)

    class Oracle(CountingOracle):
        def eval(self, g):
            querying.append(g)
            try:
                return super().eval(g)
            finally:
                querying.remove(g)

    monkeypatch.setattr(kernels, "_schedule", recording)
    h, g = biclique(2, 3), Graph(3, (), [(0, 1)])
    for mode, alpha_for in (("vsurj", alpha_for_vsurj), ("vesurj", alpha_for_vesurj)):
        system = build_system(alpha_for(h))
        _clear_source_caches()
        planned.clear()
        oracle = Oracle(mode, h)
        target = canonical_key(h)
        assert recover_hom(system, oracle, g, target) == hom_count(g, h)
        assert oracle.calls == len(system.members) > 10
        assert planned and all(len(naive_components(f)) == 1 for f in planned)
        assert len(set(planned)) == len(planned)


# The surjective modes read a disconnected source's bound off its
# components' schedules; it must equal the bound over the union's own.
def test_state_bound_of_disconnected_classes_equals_the_union_formula():
    sources = [g for _, g in enumerate_graphs(5) if len(naive_components(g)) > 1]
    assert len(sources) > 200
    for g in sources:
        _assert_state_bound_formula(g)


def test_state_bound_of_random_looped_unions_equals_the_union_formula():
    rng = random.Random(3434)
    for _ in range(300):
        _assert_state_bound_formula(_random_union(rng, rng.randint(2, 5), 14))
