import gc
import random
import sys
import time
import weakref
from collections import Counter
from itertools import combinations

import pytest

from homcount import canonical, counting, interpolation, inversion, kernels
from homcount.canonical import canonical_key, enumerate_graphs
from homcount.cli import _run_verify
from homcount.errors import SizeLimitError
from homcount.interpolation import alpha_for_vsurj
from homcount.graphs import (
    Graph,
    biclique,
    complete_graph,
    component_vertex_sets,
    cycle_graph,
    delete_nonloop_edge,
    disjoint_union,
    induced_subgraph,
    path_graph,
    reflexive_clique,
    to_text,
)
from homcount.inversion import (
    DSUB_PAIR_LIMIT,
    WALK_CACHE_SIZE,
    CoeffVector,
    dsub_count,
    dsub_downset,
    dsub_inverse_column,
    ind_count,
    ind_inverse_column,
    verify_expansions,
    vesurj_via_inversion,
    vsurj_via_inversion,
)

from .conftest import random_graph
from .oracles import (
    naive_classes,
    naive_deletion_pairs,
    naive_dsub,
    naive_hom,
    naive_ind,
    naive_inverse_column,
    naive_isomorphic,
    naive_vesurj,
    naive_vsurj,
)


def as_class_map(column):
    return {key: coeff for key, _, coeff in column.items()}


def _vector(pairs):
    """CoeffVector with coefficient c at the class of each (graph, c)."""
    return CoeffVector({canonical_key(g): (g, c) for g, c in pairs})


def test_coeffvector_aggregates_by_class():
    p3 = path_graph(3)
    p3_flipped = Graph(3, edges=frozenset({(0, 1), (0, 2)}))
    vec = _vector([(p3, 5), (Graph(1), -1)])
    assert len(vec) == 2
    assert vec.coeff(canonical_key(p3_flipped)) == 5
    assert vec.coeff(canonical_key(Graph(1))) == -1
    assert vec.coeff(canonical_key(Graph(0))) == 0
    # The signed induced column sums P3's eight vertex subsets by class.
    assert as_class_map(ind_inverse_column(p3_flipped)) == as_class_map(_vector(
        [(Graph(0), -1), (Graph(1), 3), (Graph(2), -1), (complete_graph(2), -2), (p3, 1)]))


def test_coeffvector_drops_zeros_and_orders_items():
    vec = _vector([(Graph(1), 0), (Graph(2), 7)])
    assert len(vec) == 1
    assert canonical_key(Graph(1)) not in vec
    items = _vector([(complete_graph(2), 1), (Graph(0), 4)]).items()
    assert [coeff for _, _, coeff in items] == [4, 1]
    keys = [key for key, _, _ in items]
    assert keys == sorted(keys)


def test_ind_counts_known_values(named):
    assert ind_count(named["k1"], named["k3"]) == 3
    assert ind_count(named["k2"], named["k3"]) == 3
    assert ind_count(named["p3"], named["k3"]) == 0
    assert ind_count(named["k2"], named["p3"]) == 2
    assert ind_count(named["two_k1"], named["p3"]) == 1
    assert ind_count(named["empty"], named["p3"]) == 1
    assert ind_count(named["k3"], named["k2"]) == 0


def test_ind_matches_naive_on_class_pairs():
    classes = [rep for _, rep in enumerate_graphs(3)]
    for f in classes:
        for h in classes:
            assert ind_count(f, h) == naive_ind(f, h), (f, h)


def test_dsub_matches_naive_on_class_pairs():
    classes = [rep for _, rep in enumerate_graphs(3)]
    for f in classes:
        for h in classes:
            assert dsub_count(f, h) == naive_dsub(f, h), (f, h)


def test_dsub_downset_of_single_edge():
    got = {key: mult for key, _, mult in dsub_downset(complete_graph(2))}
    want = {
        canonical_key(Graph(0)): 1,
        canonical_key(Graph(1)): 2,
        canonical_key(Graph(2)): 1,
        canonical_key(complete_graph(2)): 1,
    }
    assert got == want


def test_dsub_downset_matches_naive_classes(named):
    for h in (named["p3"], named["r2"], named["k3"], *(rep for _, rep in enumerate_graphs(4))):
        got = {key: mult for key, _, mult in dsub_downset(h)}
        want = {
            canonical_key(rep): count
            for rep, count in naive_classes(naive_deletion_pairs(h))
        }
        assert got == want


def test_dsub_keeps_loops_on_surviving_vertices():
    r2 = reflexive_clique(2)
    l1 = Graph(1, loops=frozenset({0}))
    assert dsub_count(l1, r2) == 2
    assert dsub_count(Graph(1), r2) == 0
    assert dsub_count(Graph(2, loops=frozenset({0, 1})), r2) == 1


def test_inverse_column_frozen_values(named):
    empty_key = canonical_key(Graph(0))
    col_k1 = as_class_map(dsub_inverse_column(named["k1"]))
    assert col_k1 == {canonical_key(named["k1"]): 1, empty_key: -1}

    col_l1 = as_class_map(dsub_inverse_column(named["l1"]))
    assert col_l1 == {canonical_key(named["l1"]): 1, empty_key: -1}

    col_k2 = as_class_map(dsub_inverse_column(named["k2"]))
    assert col_k2 == {
        canonical_key(named["k2"]): 1,
        canonical_key(named["two_k1"]): -1,
    }

    col_k3 = as_class_map(dsub_inverse_column(named["k3"]))
    assert col_k3 == {
        canonical_key(named["k3"]): 1,
        canonical_key(named["p3"]): -3,
        canonical_key(disjoint_union(named["k2"], named["k1"])): 3,
        canonical_key(Graph(3)): -1,
    }

    col_r3 = as_class_map(dsub_inverse_column(named["r3"]))
    ref_p3 = Graph(3, loops=frozenset({0, 1, 2}), edges=frozenset({(0, 1), (1, 2)}))
    assert col_r3 == {
        canonical_key(named["r3"]): 1,
        canonical_key(ref_p3): -3,
        canonical_key(disjoint_union(named["r2"], named["l1"])): 3,
        canonical_key(Graph(3, loops=frozenset({0, 1, 2}))): -1,
    }


def test_inverse_column_matches_naive_solver(named):
    c4 = cycle_graph(4)
    extra = (
        complete_graph(4),
        named["k22"],
        Graph(4, loops=range(4), edges=c4.edges),
        Graph(4, loops={0}, edges=c4.edges),
        Graph(4, loops={0}, edges={(0, 1), (0, 2), (0, 3)}),
    )
    for h in (named["k1"], named["l1"], named["k2"], named["r2"], named["p3"],
              named["star3"], *extra, *(rep for _, rep in enumerate_graphs(3))):
        got = dsub_inverse_column(h)
        want = naive_inverse_column(h)
        assert len(got) == len(want)
        for rep, coeff in want:
            assert coeff.denominator == 1
            assert got.coeff(canonical_key(rep)) == coeff


def test_inverse_column_inverts_dsub():
    for _, h in enumerate_graphs(3):
        column = dsub_inverse_column(h)
        for f_key, f_rep, _ in dsub_downset(h):
            total = sum(
                coeff * dsub_count(f_rep, rep) for _, rep, coeff in column.items()
            )
            assert total == (1 if f_key == canonical_key(h) else 0), (f_rep, h)


def test_inverse_column_is_unit_upper_triangular():
    for _, h in enumerate_graphs(3):
        column = dsub_inverse_column(h)
        h_key = canonical_key(h)
        assert column.coeff(h_key) == 1
        for key, _, _ in column.items():
            assert key <= h_key
            assert key.size <= h_key.size


def test_edge_deletion_coefficient_is_negated_count():
    for _, h in enumerate_graphs(3):
        column = dsub_inverse_column(h)
        for e in sorted(h.edges):
            reduced = delete_nonloop_edge(h, e)
            assert column.coeff(canonical_key(reduced)) == -dsub_count(reduced, h), (
                h,
                e,
            )


def test_downset_guardrail():
    with pytest.raises(SizeLimitError):
        dsub_downset(complete_graph(7))


def _naive_signed_induced(h):
    """Induced subgraphs of h by class, signed by the number of deleted
    vertices."""
    subs = (induced_subgraph(h, s) for r in range(h.n + 1) for s in combinations(range(h.n), r))
    return {canonical_key(rep): (-1) ** (h.n - rep.n) * count for rep, count in naive_classes(subs)}


def test_ind_inverse_column_matches_naive_signed_subsets():
    for _, h in enumerate_graphs(4):
        assert as_class_map(ind_inverse_column(h)) == _naive_signed_induced(h), h


def test_inverse_column_after_downset_builds_no_graph_per_pair(monkeypatch):
    h = Graph(4, edges=cycle_graph(4).edges)
    downset = dsub_downset(h)
    built = []
    post_init = Graph.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    column = dsub_inverse_column(h)
    assert len(built) <= len(downset) == 13
    assert column.coeff(canonical_key(h)) == 1


def test_cold_walk_builds_one_graph_per_class(monkeypatch):
    # Leaves are packed masks and every walk returns keys: cold subgraph
    # and images walks build no Graph.  An inverse column decodes one
    # representative per class of its walk with a nonzero signed sum.
    targets = [(cycle_graph(4), 13, 6), (biclique(3, 4), 137, 76)]
    keys = [canonical_key(h) for h, _, _ in targets]
    built = []
    post_init = Graph.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    for (h, classes, nonzero), key in zip(targets, keys):
        inversion._walk.cache_clear()
        interpolation._image_encodings.cache_clear()
        assert len(inversion._walk(key, True)) == classes
        inversion._walk(key, False)
        interpolation._image_encodings(key)
        assert built == []
        inversion._walk.cache_clear()
        assert len(dsub_inverse_column(h).support()) == nonzero
        assert len(built) == nonzero
        built.clear()


def test_cold_verify_builds_no_graph_in_any_walk(monkeypatch):
    # verify reads every walk by key, so none of its walks builds a Graph,
    # and few of the Graphs it builds elsewhere outlive it.
    walks = {inversion._walk.__wrapped__.__code__,
             interpolation._image_encodings.__wrapped__.__code__}
    in_walk, built = [], []
    post_init = Graph.__post_init__

    def counted(self):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in walks:
            frame = frame.f_back
        if frame is not None:
            in_walk.append(self)
        built.append(weakref.ref(self))
        post_init(self)

    for cache in (inversion._walk, interpolation._image_encodings, canonical._leaf_class,
                  canonical.canonical_form, canonical.enumerate_graphs):
        cache.cache_clear()
    monkeypatch.setattr(Graph, "__post_init__", counted)
    assert _run_verify(4)["ok"]
    assert in_walk == []
    gc.collect()
    assert sum(ref() is not None for ref in built) <= 200


def test_walk_cache_is_bounded():
    cache = inversion._walk
    assert cache.cache_info().maxsize == WALK_CACHE_SIZE
    cache.cache_clear()
    # Every class up to 5 vertices, then 6-vertex graphs made from the
    # 5-vertex classes by adding an isolated, a looped or a pendant vertex.
    graphs = [rep for _, rep in enumerate_graphs(5)]
    fives = [g for g in graphs if g.n == 5]
    graphs += [disjoint_union(g, Graph(1)) for g in fives]
    graphs += [disjoint_union(g, Graph(1, loops={0})) for g in fives]
    graphs += [Graph(6, g.loops, g.edges | {(0, 5)}) for g in fives]
    for g in graphs:
        ind_inverse_column(g)
        assert cache.cache_info().currsize <= WALK_CACHE_SIZE
        if cache.cache_info().misses > WALK_CACHE_SIZE + 32:
            break
    assert cache.cache_info().misses > WALK_CACHE_SIZE + 32


def _direct_pair_total(h):
    """Labeled deletion pairs of h: 2^(edges inside) over every vertex subset."""
    return sum(1 << sum(1 for u, v in h.edges if (mask >> u) & (mask >> v) & 1)
               for mask in range(1 << h.n))


def test_pair_limit_verdict_matches_the_direct_sum():
    for h in (path_graph(4), disjoint_union(cycle_graph(4), Graph(3)),
              disjoint_union(reflexive_clique(3), Graph(2, loops={0}))):
        assert inversion._deletion_pair_total(h, 1 << 40) == _direct_pair_total(h)
    star10 = biclique(1, 10)
    for bare, total in ((4, 961_168), (5, 1_922_336)):
        h = disjoint_union(star10, Graph(bare))
        assert _direct_pair_total(h) == total
        if total > DSUB_PAIR_LIMIT:
            with pytest.raises(SizeLimitError):
                inversion._check_pair_limit(h, True)
        else:
            inversion._check_pair_limit(h, True)
    # 20 isolated vertices have exactly 2^20 pairs: accepted without a sum
    # over their subsets.
    start = time.perf_counter()
    inversion._check_pair_limit(Graph(20), True)
    assert time.perf_counter() - start < 0.05


def test_pair_total_is_the_direct_sum_on_random_graphs():
    rng = random.Random(41)
    for i in range(80):
        if i % 2:
            h = random_graph(rng, 12)
        else:
            # Disconnected: up to three parts and some isolated vertices.
            h = Graph(rng.randint(0, 3))
            for _ in range(rng.randint(1, 3)):
                h = disjoint_union(h, random_graph(rng, 3, n_min=1))
        total = _direct_pair_total(h)
        assert inversion._deletion_pair_total(h, 1 << 60) == total
        for limit in (total - 1, total, total // 2):
            assert (inversion._deletion_pair_total(h, limit) > limit) == (total > limit)


def test_walk_totals_match_independent_counts():
    # Each labeled leaf is one copy: the induced walk has one per vertex
    # subset, the deletion walk one per deletion pair.  Each signed sum is
    # the inverse column applied to hom(empty graph, F) = 1, so it is vsurj
    # or vesurj of the empty graph into h: 1 if h has no vertices, else 0.
    # Random looped graphs on at most 8 vertices are kept when their
    # deletion walk has at most 2^15 leaves, so that the test takes seconds.
    rng = random.Random(43)
    graphs = [biclique(3, 4), Graph(0)]
    while len(graphs) < 42:
        h = random_graph(rng, 8)
        if _direct_pair_total(h) <= 1 << 15:
            graphs.append(h)
    assert max(h.n for h in graphs) == 8
    for h in graphs:
        key = canonical_key(h)
        for deletions, total in ((False, 1 << h.n), (True, _direct_pair_total(h))):
            walk = inversion._walk(key, deletions)
            assert sum(copies for _, copies, _ in walk) == total, (h, deletions)
            assert sum(signed for _, _, signed in walk) == (h.n == 0), (h, deletions)


def test_pair_limit_refuses_unions_of_small_components_at_once():
    # 4 x C5 has 33^4 pairs and 10 x K2 has 5^10: each component's share
    # is summed once and multiplied, not enumerated across components.
    for part, copies in ((cycle_graph(5), 4), (path_graph(2), 10)):
        h = Graph(0)
        for _ in range(copies):
            h = disjoint_union(h, part)
        start = time.perf_counter()
        with pytest.raises(SizeLimitError):
            inversion._check_pair_limit(h, True)
        assert time.perf_counter() - start < 0.01


def test_dsub_count_refuses_before_keying_the_pattern(monkeypatch):
    # 4 x C5 has 33^4 deletion pairs; keying it as the pattern would take
    # seconds, so h is refused before f is searched.
    h = Graph(0)
    for _ in range(4):
        h = disjoint_union(h, cycle_graph(5))

    def refuse(*args):
        raise AssertionError("keyed a pattern dsub_count refuses")

    monkeypatch.setattr(kernels, "min_encoding", refuse)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="deletion-subgraph enumeration"):
        dsub_count(h, h)
    assert time.perf_counter() - start < 0.01


def test_induced_walk_refuses_before_canonicalization(monkeypatch):
    def refuse(*args):
        raise AssertionError("canonicalized a graph the induced walk refuses")

    # 21 isolated vertices have 2^21 vertex subsets, each one leaf.
    monkeypatch.setattr(kernels, "min_encoding", refuse)
    for walk in (ind_inverse_column, alpha_for_vsurj,
                 lambda h: vsurj_via_inversion(Graph(1), h)):
        with pytest.raises(SizeLimitError, match="induced-subgraph enumeration"):
            walk(Graph(21))


def test_ind_count_refuses_past_the_subset_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("keyed a pattern ind_count refuses")

    # P10 in P40 has C(40, 10) = 847,660,528 vertex subsets to key.
    monkeypatch.setattr(kernels, "min_encoding", refuse)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="induced-subgraph enumeration"):
        ind_count(path_graph(10), path_graph(40))
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    # Small patterns in large targets still answer, past the induced walk's
    # 20-vertex limit.
    assert ind_count(Graph(1), path_graph(30)) == 30
    assert ind_count(complete_graph(2), path_graph(30)) == 29


def test_ind_count_reads_the_target_masks_once():
    # 499,500 vertex subsets of P1000; only the 999 edges are searched.
    start = time.perf_counter()
    assert ind_count(complete_graph(2), path_graph(1000)) == 999
    assert time.perf_counter() - start < 6.0


def test_via_inversion_matches_direct(named):
    from homcount.counting import vesurj_count, vsurj_count

    pairs = [
        (named["p3"], named["k2"]),
        (named["p4"], named["star3"]),
        (named["k3"], named["k3"]),
        (named["c5"], named["k3"]),
        (named["k2"], named["r2"]),
        (named["empty"], named["empty"]),
    ]
    for g, h in pairs:
        assert vsurj_via_inversion(g, h) == vsurj_count(g, h), (g, h)
        assert vesurj_via_inversion(g, h) == vesurj_count(g, h), (g, h)


def test_verify_expansions_small_sweep():
    report = verify_expansions(2)
    assert report["violations"] == []
    assert report["classes"] == 9
    assert report["pairs"] == 81
    assert report["checks"] == 4 * 81


HOM_BY_VSURJ = "hom = sum of vsurj over induced subgraphs"
HOM_BY_VESURJ = "hom = dsub-weighted sum of vesurj"
VSURJ_BY_HOM = "vsurj = signed hom sum"
VESURJ_BY_HOM = "vesurj = inverse-column hom sum"

# For a counter off by one at (g, h): the identities that read it at that
# pair, with the shift it puts on their (left, right) sides there.
FAULT_SHIFTS = {
    "hom_count": {HOM_BY_VSURJ: (1, 0), HOM_BY_VESURJ: (1, 0),
                  VSURJ_BY_HOM: (0, 1), VESURJ_BY_HOM: (0, 1)},
    "vsurj_count": {HOM_BY_VSURJ: (0, 1), VSURJ_BY_HOM: (1, 0)},
    "vesurj_count": {HOM_BY_VESURJ: (0, 1), VESURJ_BY_HOM: (1, 0)},
}


def _shift_hom_table(monkeypatch, shifts):
    """Make verify_expansions' hom table add shifts[(f key, h key)] at
    those pairs."""
    real = inversion.hom_table

    def shifted(members):
        table = real(members)
        keys = [key for key, _ in members]
        for (f, h), shift in shifts.items():
            table[keys.index(f)][keys.index(h)] += shift
        return table

    monkeypatch.setattr(inversion, "hom_table", shifted)


@pytest.mark.parametrize("counter", sorted(FAULT_SHIFTS))
def test_verify_expansions_reports_a_faulty_counter(monkeypatch, counter):
    g, h = Graph(2), complete_graph(2)
    faulty_pair = (canonical_key(g), canonical_key(h))
    if counter == "hom_count":
        # hom is counted between connected classes only, so the pair
        # (2 isolated vertices, K2) is an entry of hom_table's table.
        _shift_hom_table(monkeypatch, {faulty_pair: 1})
    else:
        real = getattr(inversion, counter)

        def off_by_one(a, b):
            return real(a, b) + ((canonical_key(a), canonical_key(b)) == faulty_pair)

        monkeypatch.setattr(inversion, counter, off_by_one)
    violations = verify_expansions(2)["violations"]

    hom, vs, ve = naive_hom(g, h), naive_vsurj(g, h), naive_vesurj(g, h)
    assert (hom, vs, ve) == (4, 2, 0)
    base = {HOM_BY_VSURJ: hom, HOM_BY_VESURJ: hom, VSURJ_BY_HOM: vs, VESURJ_BY_HOM: ve}
    want = {
        name: (str(base[name] + dl), str(base[name] + dr))
        for name, (dl, dr) in FAULT_SHIFTS[counter].items()
    }
    at_pair = {
        v["identity"]: (v["left"], v["right"])
        for v in violations
        if v["h"] == to_text(h)
    }
    assert at_pair == want
    assert {v["g"] for v in violations} == {to_text(g)}
    assert {v["identity"] for v in violations} == set(want)


def test_verify_expansions_packs_extreme_entries_exactly(monkeypatch):
    # The class with the most loops and edges is read only by its own
    # columns, so a hom entry there shifts only the identities at its pair.
    classes = enumerate_graphs(2)
    h = classes[-1][1]
    assert h == Graph(2, {0, 1}, {(0, 1)})
    reps = [rep for _, rep in classes]
    # One entry far above every other and one negative; then, at adjacent
    # sources, +2^(8k) and -1, which cancel in packed columns whose slots
    # are k bytes wide.
    cases = [{Graph(2): 10**40, complete_graph(2): -(naive_hom(complete_graph(2), h) + 7)}]
    cases += [{reps[1]: 1 << (8 * k), reps[2]: -1} for k in range(1, 6)]
    for shifts in cases:
        _shift_hom_table(monkeypatch, {(canonical_key(g), canonical_key(h)): d
                                       for g, d in shifts.items()})
        want = []
        for g in sorted(shifts, key=reps.index):
            d = shifts[g]
            base = {HOM_BY_VSURJ: naive_hom(g, h), HOM_BY_VESURJ: naive_hom(g, h),
                    VSURJ_BY_HOM: naive_vsurj(g, h), VESURJ_BY_HOM: naive_vesurj(g, h)}
            for name in (HOM_BY_VSURJ, HOM_BY_VESURJ, VSURJ_BY_HOM, VESURJ_BY_HOM):
                dl, dr = FAULT_SHIFTS["hom_count"][name]
                want.append({"identity": name, "g": to_text(g), "h": to_text(h),
                             "left": str(base[name] + d * dl), "right": str(base[name] + d * dr)})
        assert verify_expansions(2)["violations"] == want, shifts
        monkeypatch.undo()
    assert want[0]["left"] == str(naive_hom(reps[1], h) + (1 << 40))
    assert cases[0][complete_graph(2)] + naive_hom(complete_graph(2), h) == -7


def test_verify_expansions_counts_each_class_pair_once(monkeypatch):
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    # hom_table calls hom_count from its own module.
    counted(counting, "hom_count")
    for name in ("vsurj_count", "vesurj_count", "dsub_downset", "dsub_inverse_column"):
        counted(inversion, name)
    n = verify_expansions(3)["classes"]
    assert n == 29
    connected = sum(len(component_vertex_sets(rep)) == 1 for _, rep in enumerate_graphs(3))
    assert connected == 15
    assert calls["hom_count"] <= connected * connected
    assert calls["vsurj_count"] <= n * n
    assert calls["vesurj_count"] <= n * n
    assert calls["dsub_downset"] <= n
    assert calls["dsub_inverse_column"] <= n
