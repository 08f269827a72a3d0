import copy
import functools
import gc
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homcount
from homcount import canonical, interpolation, inversion, kernels
from homcount.canonical import LEAF_CACHE_SIZE, canonical_form, canonical_key, enumerate_graphs
from homcount.cli import _run_verify
from homcount.counting import hom_count, hom_table, vesurj_count, vsurj_count
from homcount.errors import (
    InternalCheckError,
    OracleMismatchError,
    SingularSystemError,
    SizeLimitError,
)
from homcount.families import find_hard_edge
from homcount.graphs import (
    Graph,
    adjacency_masks,
    biclique,
    complete_graph,
    cycle_graph,
    delete_nonloop_edge,
    disjoint_union,
    parse_graph,
    path_graph,
    to_text,
)
from homcount.interpolation import (
    IMAGES_CACHE_SIZE,
    QUOTIENT_MAX_VERTICES,
    CountingOracle,
    ExternalCommandOracle,
    alpha_for_vesurj,
    alpha_for_vsurj,
    build_system,
    closed_set,
    homomorphic_images,
    lovasz_matrix,
    recover_hom,
    reduction_demo,
)
from homcount.inversion import DSUB_PAIR_LIMIT

from .conftest import random_graph, relabel
from .oracles import (
    naive_aut,
    naive_classes,
    naive_isomorphic,
    naive_min_encoding,
    naive_quotient,
    naive_set_partitions,
    naive_solve,
)


def test_images_of_single_edge(named):
    members = homomorphic_images(named["k2"])
    reps = [rep for _, rep in members]
    assert len(reps) == 2
    assert any(rep == named["l1"] for rep in reps)
    assert any(rep == named["k2"] for rep in reps)


def test_images_of_triangle(named):
    reps = [rep for _, rep in homomorphic_images(named["k3"])]
    keys = {canonical_key(rep) for rep in reps}
    q_loop_edge = Graph(2, loops=frozenset({0}), edges=frozenset({(0, 1)}))
    assert keys == {
        canonical_key(named["k3"]),
        canonical_key(q_loop_edge),
        canonical_key(named["l1"]),
    }


def test_images_match_naive_quotients(named):
    rng = random.Random(71)
    graphs = [named["p3"], named["k22"], named["r2"]]
    graphs += [random_graph(rng, 6, n_min=5) for _ in range(20)]
    for g in graphs:
        quotients = [naive_quotient(g, p) for p in naive_set_partitions(g.n)]
        want = [rep for rep, _ in naive_classes(quotients)]
        got = [rep for _, rep in homomorphic_images(g)]
        assert len(got) == len(want)
        for rep in got:
            assert any(naive_isomorphic(rep, w) for w in want)
        for w in want:
            assert any(naive_isomorphic(rep, w) for rep in got)


def _looped_cube():
    """The 3-cube with two looped vertices: 4,140 set partitions."""
    return Graph(8, loops=[0, 7], edges=[(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                                         if u < u ^ b])


def test_images_build_one_graph_per_class(monkeypatch):
    h = _looped_cube()
    built = []
    post_init = Graph.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    members = homomorphic_images(h)
    assert len(built) == len(members)


def test_images_are_sorted_and_guarded(monkeypatch, named):
    for h in (named["c5"], _looped_cube()):
        keys = [key for key, _ in homomorphic_images(h)]
        assert keys == sorted(keys)

    def refuse(*args):
        raise AssertionError("keyed a graph the size guard refuses")

    # The guard runs before h is keyed.
    monkeypatch.setattr(kernels, "min_encoding", refuse)
    with pytest.raises(SizeLimitError):
        homomorphic_images(Graph(9))


def test_images_cache_is_bounded():
    cache = interpolation._image_encodings
    assert cache.cache_info().maxsize == IMAGES_CACHE_SIZE
    cache.cache_clear()
    rng = random.Random(83)
    for _ in range(IMAGES_CACHE_SIZE + 60):
        homomorphic_images(random_graph(rng, 6, n_min=5))
        assert cache.cache_info().currsize <= IMAGES_CACHE_SIZE
    assert cache.cache_info().misses > IMAGES_CACHE_SIZE


def test_images_of_relabeled_graph_are_a_cache_hit(monkeypatch):
    rng = random.Random(89)
    g = random_graph(rng, 7, n_min=7)
    cache = interpolation._image_encodings
    cache.cache_clear()
    want = homomorphic_images(g)
    misses = cache.cache_info().misses
    perm = list(range(g.n))
    rng.shuffle(perm)
    calls = []
    encode = kernels.min_encoding

    def counting(*args):
        calls.append(args[0])
        return encode(*args)

    monkeypatch.setattr(kernels, "min_encoding", counting)
    assert homomorphic_images(relabel(g, perm)) == want
    assert cache.cache_info().misses == misses
    assert calls == [g.n]


def _bell(n):
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_image_encodings_match_naive_quotients_with_a_warm_memo():
    # Every class with at most 4 vertices, then 25 random looped graphs on
    # 5-6 vertices, walked in one sequence from cleared caches: later walks
    # read labelled quotients that earlier ones left in the memo.
    rng = random.Random(131)
    graphs = [rep for _, rep in enumerate_graphs(4)]
    graphs += [random_graph(rng, 6, n_min=5) for _ in range(25)]
    interpolation._image_encodings.cache_clear()
    canonical._leaf_class.cache_clear()
    for g in graphs:
        want = {}
        for partition in naive_set_partitions(g.n):
            q = naive_quotient(g, partition)
            image = (q.n, naive_min_encoding(q))
            if image in want:
                want[image][0] += 1
            else:
                want[image] = [1, naive_aut(q)]
        got = interpolation.image_encodings(g)
        assert {(key.n, key.enc): [c, a] for key, c, a in got} == want, g
        assert all(key == canonical._key(key.n, key.enc) for key, _, _ in got), g
        assert sum(c for _, c, _ in got) == _bell(g.n)
    assert canonical._leaf_class.cache_info().hits > 0


def test_quotient_memo_is_bounded_and_shared_across_classes(monkeypatch):
    memo = canonical._leaf_class
    assert memo.cache_info().maxsize == LEAF_CACHE_SIZE
    # Packed rows are _STRIDE bits wide, so the largest quotient fits, and
    # so does the largest subgraph-walk leaf: the walks refuse a target once
    # its 2^n vertex subsets pass DSUB_PAIR_LIMIT.
    assert canonical._STRIDE >= QUOTIENT_MAX_VERTICES
    assert canonical._STRIDE >= DSUB_PAIR_LIMIT.bit_length() - 1
    interpolation._image_encodings.cache_clear()
    memo.cache_clear()
    rng = random.Random(137)
    while memo.cache_info().misses <= LEAF_CACHE_SIZE:
        interpolation.image_encodings(random_graph(rng, 8, n_min=8))
        assert memo.cache_info().currsize <= LEAF_CACHE_SIZE
    # The loop at 0 is implied whenever 0 shares a block with its neighbour
    # 1, so the second class has many labelled quotients of the first.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)]
    first, second = Graph(6, [], edges), Graph(6, [0], edges)
    interpolation.image_encodings(first)
    labelled = {naive_quotient(second, p) for p in naive_set_partitions(6)}
    calls = []
    encode = kernels.min_encoding

    def counting(n, loops, adj):
        calls.append((n, loops, tuple(adj)))
        return encode(n, loops, adj)

    monkeypatch.setattr(kernels, "min_encoding", counting)
    interpolation._image_encodings(canonical._key(6, naive_min_encoding(second)))
    assert 0 < len(calls) < len(labelled)
    # A walk's leaf and a quotient with the same labelling share one entry:
    # the identity partition of K3,3's representative is the induced walk's
    # leaf on all of its vertices, which the walk then finds in the memo.
    key = canonical_key(biclique(3, 3))
    loops, adj = canonical._masks(key.n, key.enc)
    whole = (key.n, loops, tuple(adj))
    memo.cache_clear()
    calls.clear()
    interpolation._image_encodings.__wrapped__(key)
    assert whole in calls
    calls.clear()
    inversion._walk.__wrapped__(key, False)
    assert calls and whole not in calls


def test_verify_keys_images_once_per_class():
    interpolation._image_encodings.cache_clear()
    report = _run_verify(3)
    assert report["ok"]
    classes = report["sections"]["interpolation"]["classes"]
    assert classes == len(enumerate_graphs(3)) == 29
    assert interpolation._image_encodings.cache_info().misses == classes


def test_mutating_returned_images_leaves_later_calls_alone(named):
    first = homomorphic_images(named["c5"])
    want = list(first)
    first.reverse()
    first.append(first[0])
    assert homomorphic_images(named["c5"]) == want


def test_images_and_keys_leave_no_reference_cycles():
    c12 = cycle_graph(12)
    gc.collect()
    gc.disable()
    try:
        interpolation._image_encodings.cache_clear()
        homomorphic_images(_looped_cube())
        assert gc.collect() == 0
        kernels.min_encoding(c12.n, 0, adjacency_masks(c12))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_closed_set_is_closed_under_images():
    for _, h in enumerate_graphs(3):
        members = closed_set([h])
        keys = {key for key, _ in members}
        for _, rep in members:
            for key, _ in homomorphic_images(rep):
                assert key in keys, (h, rep)


def test_build_system_computes_images_once_per_member(monkeypatch, named):
    calls = []
    images = interpolation._image_encodings

    def counting(key):
        calls.append(key)
        return images(key)

    monkeypatch.setattr(interpolation, "_image_encodings", counting)
    for alpha in (alpha_for_vsurj(named["k3"]), alpha_for_vesurj(named["k22"]),
                  alpha_for_vesurj(named["r3"])):
        calls.clear()
        system = build_system(alpha)
        assert len(set(calls)) == len(calls) == len(system.members)


def _count_key_searches(monkeypatch):
    """The graphs canonical._min_encoding keys from now on, through every
    homcount module that binds it."""
    calls = []
    search = canonical._min_encoding

    def counting(g):
        calls.append(g)
        return search(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("homcount") and getattr(module, "_min_encoding", None) is search:
            monkeypatch.setattr(module, "_min_encoding", counting)
    return calls


def test_closed_set_computes_images_once_per_member(monkeypatch, named):
    searches = _count_key_searches(monkeypatch)
    walks = interpolation._image_encodings
    for graphs in ([named["c5"]], [named["k1"], named["l1"], named["k2"]],
                   [named["k22"], named["star3"], named["r2"]]):
        searches.clear()
        walks.cache_clear()
        members = closed_set(graphs)
        assert len(searches) == len(graphs), graphs
        assert (walks.cache_info().misses, walks.cache_info().hits) == (len(members), 0)
    for alpha in (alpha_for_vsurj(named["k3"]), alpha_for_vesurj(named["k22"]),
                  alpha_for_vesurj(biclique(2, 3))):
        # hom_table keys the components of disconnected members through
        # canonical_form's cache, warm from here on, so any search left
        # would key a member.
        members = build_system(alpha).members
        hom_table(members)
        for build, arg in ((build_system, alpha), (lovasz_matrix, members)):
            searches.clear()
            walks.cache_clear()
            system = build(arg)
            assert searches == []
            assert (walks.cache_info().misses, walks.cache_info().hits) == (len(members), 0)
            assert system.members == members


def test_keyed_classes_are_size_checked_before_any_walk(monkeypatch):
    c9 = cycle_graph(9)
    alpha = alpha_for_vsurj(c9)

    def refuse(*args):
        raise AssertionError("walked the images of a class before the size guard")

    # A 9-vertex class is past QUOTIENT_MAX_VERTICES (its Bell(9) = 21,147
    # partitions), so it must be refused before any walk.
    monkeypatch.setattr(interpolation, "_image_encodings", refuse)
    with pytest.raises(SizeLimitError):
        lovasz_matrix([canonical_form(c9)])
    with pytest.raises(SizeLimitError):
        build_system(alpha)


def test_lovasz_matrix_small_example(named):
    members = closed_set([named["k1"], named["l1"], named["k2"]])
    system = lovasz_matrix(members)
    assert hom_table(system.members) == [[1, 1, 2], [0, 1, 0], [0, 1, 2]]
    assert system.det == 2


def test_lovasz_determinant_is_product_of_automorphism_counts():
    for _, h in enumerate_graphs(4):
        system = lovasz_matrix(closed_set([h]))
        assert system.det == math.prod(naive_aut(rep) for _, rep in system.members), h


def _recover_mix_targets(named):
    c4_one_loop = Graph(4, loops=[0], edges=cycle_graph(4).edges)
    return [named["k2"], named["k3"], named["p3"], named["k22"], named["star3"],
            biclique(2, 3), named["c5"], complete_graph(4), c4_one_loop,
            named["r2"], named["r3"]]


def _image_and_recover_mix_systems(named):
    """The systems over the 119 image sets of classes with at most 4
    vertices, then the 22 recover-mix systems."""
    systems = [lovasz_matrix(homomorphic_images(h)) for _, h in enumerate_graphs(4)]
    for h in _recover_mix_targets(named):
        systems += [build_system(alpha_for_vsurj(h)), build_system(alpha_for_vesurj(h))]
    assert len(systems) == 119 + 22
    return systems


def test_component_table_matrix_matches_hom_counts(named):
    systems = _image_and_recover_mix_systems(named)
    assert any(rep.n == 0 for system in systems for _, rep in system.members)
    for system in systems:
        reps = [rep for _, rep in system.members]
        table = hom_table(system.members)
        for f, row in zip(reps, table):
            for h, entry in zip(reps, row):
                assert entry == hom_count(f, h), (f, h)
        # Asked for some columns, in any order, it fills just those.
        columns = list(range(len(reps)))[::-3]
        assert hom_table(system.members, columns) == [[row[j] for j in columns] for row in table]


def test_k23_vesurj_system_counts_component_classes_and_keys_no_member(monkeypatch):
    alpha = alpha_for_vesurj(biclique(2, 3))
    calls = []
    count_maps = kernels.count_maps

    def counting_maps(*args, **kwargs):
        calls.append(args)
        return count_maps(*args, **kwargs)

    monkeypatch.setattr(kernels, "count_maps", counting_maps)
    system = build_system(alpha)
    assert len(system.members) == 62
    assert calls == []
    table = hom_table(system.members)
    assert len(calls) <= 30**2
    oracle = CountingOracle("vesurj", biclique(2, 3))
    recover_hom(system, oracle, path_graph(3), canonical_key(biclique(2, 3)))

    def refuse(*args):
        raise AssertionError("keyed a member whose images are cached")

    # Members are keyed by their least encodings, and the images walk has
    # already counted their automorphisms.
    monkeypatch.setattr(kernels, "min_encoding", refuse)
    again = interpolation._system(key for key, _ in system.members)
    again._fill(range(len(again.members)), table)
    assert again.members == system.members
    assert (again.lower, again.autos) == (system.lower, system.autos)
    assert system._columns and all(
        again._columns[j] == col for j, col in system._columns.items())


def test_k33_vesurj_system_walks_each_member_once():
    # 189 members, more than the images cache keeps: the system reads N
    # off the images it walked while closing the set, not off a second walk.
    alpha = alpha_for_vesurj(biclique(3, 3))
    interpolation._image_encodings.cache_clear()
    system = build_system(alpha)
    assert len(system.members) == 189 > IMAGES_CACHE_SIZE
    assert interpolation._image_encodings.cache_info().misses <= len(system.members)


def test_build_system_keys_each_image_once(monkeypatch):
    # 62 members, fewer than the images cache keeps: a cold build keys each
    # member's images once, as it walks them, and a second build reads the
    # cached keys and keys nothing.
    alpha = alpha_for_vesurj(biclique(2, 3))
    members = build_system(alpha).members
    assert len(members) == 62 < IMAGES_CACHE_SIZE
    entries = sum(len(interpolation._image_encodings(key)) for key, _ in members)
    calls = []
    key_of = interpolation._key

    def counting(n, enc):
        calls.append((n, enc))
        return key_of(n, enc)

    monkeypatch.setattr(interpolation, "_key", counting)
    interpolation._image_encodings.cache_clear()
    assert build_system(alpha).members == members
    assert len(calls) == entries
    calls.clear()
    assert build_system(alpha).members == members
    assert calls == []


def test_closed_set_refuses_c7_while_it_grows(monkeypatch):
    # C7's vesurj closed set has 278 members; under a cap of 256 it is
    # refused as soon as the union passes SYSTEM_MAX_SIZE, before every
    # member's images are walked.
    monkeypatch.setattr(interpolation, "SYSTEM_MAX_SIZE", 256)
    alpha = alpha_for_vesurj(cycle_graph(7))
    for build in (lambda: closed_set(rep for _, rep, _ in alpha.items()),
                  lambda: reduction_demo(cycle_graph(7), "vesurj", path_graph(3))):
        interpolation._image_encodings.cache_clear()
        interpolation._reduction_system.cache_clear()
        with pytest.raises(SizeLimitError, match="systems are limited to 256 members"):
            build()
        assert interpolation._image_encodings.cache_info().misses < 278


def test_c7_vesurj_recovers_p3():
    # 278 members, past the former cap of 256.
    report = reduction_demo(cycle_graph(7), "vesurj", path_graph(3))
    assert len(report["closed_set"]) == report["oracle_queries"] == 278
    assert [t["match"] for t in report["targets"]] == [True]


def test_factors_match_naive_partitions_and_automorphisms():
    """N's rows group the naive set partitions of each member by the least
    encoding of the naive quotient, and U's diagonal is the naive aut."""
    partitions, autos = {}, {}
    for _, h in enumerate_graphs(4):
        classes = {}
        for p in naive_set_partitions(h.n):
            q = naive_quotient(h, p)
            classes.setdefault((q.n, naive_min_encoding(q)), []).append(q)
        h_class = (h.n, naive_min_encoding(h))
        partitions[h_class] = {c: len(qs) for c, qs in classes.items()}
        autos[h_class] = naive_aut(h)
        kept = interpolation._image_encodings(canonical._key(*h_class))
        assert {(key.n, key.enc): c for key, c, _ in kept} == partitions[h_class], h
        assert {(key.n, key.enc): a for key, _, a in kept} == {
            c: naive_aut(qs[0]) for c, qs in classes.items()}, h
    for _, h in enumerate_graphs(4):
        system = lovasz_matrix(homomorphic_images(h))
        members = [(rep.n, naive_min_encoding(rep)) for _, rep in system.members]
        for i, member in enumerate(members):
            row = {members[k]: c for k, c in system.lower[i]}
            row[member] = 1
            assert row == partitions[member], (h, i)
            assert system.autos[i] == system._columns[i][i] == autos[member], (h, i)


def test_inverse_rows_match_fraction_elimination(named):
    for system in _image_and_recover_mix_systems(named):
        n = len(system.members)
        inverse = naive_solve(hom_table(system.members),
                              [[int(i == j) for j in range(n)] for i in range(n)])
        for t in range(n):
            assert system._inverse_row(t) == [system.det * x for x in inverse[t]], t


def test_inverse_rows_at_targets_match_fraction_inverse_of_direct_counts():
    # The matrix comes from one kernel count per pair, not from hom_table,
    # and the rows from build_system's systems, whose columns of U are
    # filled only from each target's position on.
    homs = {}
    for _, h in enumerate_graphs(4):
        for alpha in (alpha_for_vsurj(h), alpha_for_vesurj(h)):
            system = build_system(alpha)
            matrix = [[homs[f, k] if (f, k) in homs else
                       homs.setdefault((f, k), hom_count(f_rep, k_rep))
                       for k, k_rep in system.members] for f, f_rep in system.members]
            targets = [system.index_of(key) for key in alpha.support()]
            # Row t of the inverse solves x M = e_t, a column of M^T x = I.
            inverse = naive_solve([list(col) for col in zip(*matrix)],
                                  [[int(i == t) for t in targets] for i in range(len(matrix))])
            for c, t in enumerate(targets):
                assert system._inverse_row(t) == [system.det * x[c] for x in inverse], (h, t)


def test_build_system_counts_no_maps(monkeypatch, named):
    def refuse(*args):
        raise AssertionError("counted maps while building a system")

    alphas = [alpha_for(h) for h in (named["k22"], biclique(2, 3), named["r3"])
              for alpha_for in (alpha_for_vsurj, alpha_for_vesurj)]
    monkeypatch.setattr(kernels, "count_maps", refuse)
    for alpha in alphas:
        assert build_system(alpha).members


def test_recovery_fills_the_columns_from_the_target_on(monkeypatch):
    h = biclique(2, 3)
    alpha = alpha_for_vesurj(h)
    system = build_system(alpha)
    filled = []

    def counting(members, columns=None):
        filled.append(list(columns))
        return hom_table(members, columns)

    monkeypatch.setattr(interpolation, "hom_table", counting)
    t = system.index_of(canonical_key(h))
    assert t == len(system.members) - 1
    assert recover_hom(system, CountingOracle("vesurj", h), path_graph(3),
                       canonical_key(h)) == hom_count(path_graph(3), h)
    assert filled == [[t]] and sorted(system._columns) == [t]
    # The hard-edge deletion sits just before h and fills one more column.
    sub = canonical_key(delete_nonloop_edge(h, find_hard_edge(h)))
    assert system.index_of(sub) == t - 1
    recover_hom(system, CountingOracle("vesurj", h), path_graph(3), sub)
    assert filled == [[t], [t - 1]]


def test_cold_vesurj_recovery_fills_both_targets_columns_in_one_call(monkeypatch):
    # h sits last and its hard-edge deletion just before it: asking for the
    # deletion's row first fills both columns through one hom_table call.
    h = biclique(2, 3)
    interpolation._reduction_system.cache_clear()
    filled = []

    def counting(members, columns=None):
        filled.append(list(columns))
        return hom_table(members, columns)

    monkeypatch.setattr(interpolation, "hom_table", counting)
    report = reduction_demo(h, "vesurj", path_graph(3))
    t = len(report["closed_set"]) - 1
    assert [target["key"] for target in report["targets"]] == [
        report["closed_set"][t]["key"], report["closed_set"][t - 1]["key"]]
    assert all(target["match"] for target in report["targets"])
    assert filled == [[t - 1, t]]


def test_shifted_trailing_entry_is_caught_before_any_query(monkeypatch, named):
    # hom(K2,2, K2,2) off by one changes the last diagonal entry of U.
    h = named["k22"]
    system = build_system(alpha_for_vesurj(h))
    k22 = canonical_key(h)
    monkeypatch.setattr(interpolation, "hom_table", _shifted_hom_table(
        lambda f, g: int(canonical_key(f) == canonical_key(g) == k22)))
    oracle = CountingOracle("vesurj", h)
    with pytest.raises(InternalCheckError, match="injective maps to itself"):
        recover_hom(system, oracle, named["p3"], k22)
    assert oracle.calls == 0 and not system._columns


def test_inexact_division_through_u_is_an_internal_error(named):
    system = lovasz_matrix(closed_set([named["k1"], named["l1"], named["k2"]]))
    assert system.det == 2
    # A kept diagonal of 3 where det is 2 leaves det U^-1 fractional.
    system._columns[2] = (*system._columns[2][:2], 3)
    with pytest.raises(InternalCheckError, match="not integral"):
        system._inverse_row(2)


def _shifted_hom_table(shift):
    """counting.hom_table with shift(f, h) added to the entry at each pair."""
    def shifted(members, columns=None):
        columns = range(len(members)) if columns is None else columns
        table = hom_table(members, columns)
        for (_, f), row in zip(members, table):
            for c, j in enumerate(columns):
                row[c] += shift(f, members[j][1])
        return table

    return shifted


def test_lovasz_matrix_rejects_wrong_determinant(monkeypatch, named):
    members = closed_set([named["k1"], named["l1"], named["k2"]])
    # hom(K2, K2) off by one changes U's diagonal; hom(K2, K1) off by one
    # leaves U with an entry below it.
    for f_n, h_n, message in ((2, 2, "determinant 3"), (2, 1, "upper triangular")):
        monkeypatch.setattr(interpolation, "hom_table", _shifted_hom_table(
            lambda f, h: f.n == f_n and h.n == h_n and not h.loops))
        with pytest.raises(InternalCheckError) as raised:
            lovasz_matrix(members)
        assert not isinstance(raised.value, SingularSystemError)
        assert message in str(raised.value)


def test_column_fill_rejects_singular_matrix(monkeypatch, named):
    members = closed_set([named["k1"], named["l1"], named["k2"]])
    # hom(K2, K2) two short leaves a zero on U's diagonal.
    monkeypatch.setattr(interpolation, "hom_table", _shifted_hom_table(
        lambda f, h: -2 * (f.n == h.n == 2 and not h.loops)))
    with pytest.raises(SingularSystemError, match="singular"):
        lovasz_matrix(members)


def test_verify_reports_determinant_mismatch(monkeypatch):
    # The empty graph's system has no hom entries to get wrong; K1's and
    # L1's have one each.  verify reads every system's matrix from the
    # class table its expansions section builds, so that table is shifted.
    for shift, check in ((1, "closed-set determinant is the product of aut"),
                         (-1, "closed-set matrix invertible")):
        monkeypatch.setattr(inversion, "hom_table", _shifted_hom_table(
            lambda f, h: shift * (f.n == h.n == 1)))
        report = _run_verify(1)
        checks = [v["check"] for v in report["sections"]["interpolation"]["violations"]]
        assert checks == [check] * 2
        assert not report["ok"]


def test_lovasz_matrix_rejects_non_closed_input(monkeypatch, named):
    with pytest.raises(ValueError, match="not closed"):
        lovasz_matrix([named["k2"]])
    # K2's images are L1 and K2.  A walk that gives L1 the image K3 leaves
    # that set open; one that gives L1 the image K2, which comes after L1
    # in matrix order, makes N upper triangular.  Either is caught before
    # the input is found not closed.
    k2, l1, k3 = (canonical_key(named[name]) for name in ("k2", "l1", "k3"))
    walk = interpolation._image_encodings
    for extra, message in ((k3, "image closure failed to close"),
                           (k2, "not unit lower triangular")):
        def broken(key, extra=extra):
            images = walk(key)
            return images + ((extra, 1, 1),) if key == l1 else images

        monkeypatch.setattr(interpolation, "_image_encodings", broken)
        for build in (lambda: lovasz_matrix([named["k2"]]), lambda: interpolation._system([k2])):
            with pytest.raises(InternalCheckError, match=message):
                build()


def test_lovasz_matrix_rejects_duplicates(named):
    with pytest.raises(ValueError):
        lovasz_matrix([named["k2"], Graph(2, edges=frozenset({(0, 1)})),
                       named["l1"], named["k1"]])


def test_alpha_for_vsurj_expands_hom(named):
    alpha = alpha_for_vsurj(named["k2"])
    assert {key: c for key, _, c in alpha.items()} == {
        canonical_key(Graph(0)): 1,
        canonical_key(Graph(1)): -2,
        canonical_key(named["k2"]): 1,
    }
    for g in (named["p3"], named["k3"], named["c5"]):
        total = sum(
            coeff * hom_count(g, rep) for _, rep, coeff in alpha.items()
        )
        assert total == vsurj_count(g, named["k2"])


def test_alpha_for_vesurj_expands_hom(named):
    for h in (named["k2"], named["star3"], named["r2"]):
        alpha = alpha_for_vesurj(h)
        for g in (named["p3"], named["p4"], named["k3"]):
            total = sum(
                coeff * hom_count(g, rep) for _, rep, coeff in alpha.items()
            )
            assert total == vesurj_count(g, h), (g, h)


def test_recover_hom_from_vsurj_oracle(named):
    alpha = alpha_for_vsurj(named["k2"])
    system = build_system(alpha)
    oracle = CountingOracle("vsurj", named["k2"])
    got = recover_hom(system, oracle, named["p3"], canonical_key(named["k2"]))
    assert got == 2
    assert oracle.calls == len(system.members)


def test_recover_hom_from_vsurj_oracle_triangle(named):
    alpha = alpha_for_vsurj(named["k3"])
    system = build_system(alpha)
    oracle = CountingOracle("vsurj", named["k3"])
    got = recover_hom(system, oracle, named["c5"], canonical_key(named["k3"]))
    assert got == 30


def test_recover_hom_from_vesurj_oracle_hits_edge_deleted_target(named):
    alpha = alpha_for_vesurj(named["k22"])
    system = build_system(alpha)
    oracle = CountingOracle("vesurj", named["k22"])
    assert recover_hom(system, oracle, named["p3"], canonical_key(named["k22"])) == 16
    p4_key = canonical_key(delete_nonloop_edge(named["k22"], (0, 2)))
    assert recover_hom(system, oracle, named["p3"], p4_key) == 10


def test_factored_recovery_matches_full_solve(monkeypatch, named):
    filled, solves = [], []
    solve = interpolation.row_solve_unit_lower

    def counting(members, columns=None):
        filled.extend(columns)
        return hom_table(members, columns)

    def counting_solve(lower, rhs):
        solves.append(len(rhs))
        return solve(lower, rhs)

    monkeypatch.setattr(interpolation, "hom_table", counting)
    monkeypatch.setattr(interpolation, "row_solve_unit_lower", counting_solve)
    for mode, h in (("vsurj", named["k3"]), ("vsurj", named["star3"]),
                    ("vesurj", named["k22"]), ("vesurj", named["r2"])):
        alpha = alpha_for_vsurj(h) if mode == "vsurj" else alpha_for_vesurj(h)
        filled.clear()
        solves.clear()
        system = build_system(alpha)
        assert filled == solves == []
        matrix = hom_table(system.members)
        for g in (named["p3"], named["c5"]):
            oracle = CountingOracle(mode, h)
            rhs = [oracle.eval(disjoint_union(g, rep)) for _, rep in system.members]
            beta = [x for (x,) in naive_solve(matrix, [[b] for b in rhs])]
            for key, rep, coeff in alpha.items():
                got = recover_hom(system, oracle, g, key)
                assert Fraction(got) == beta[system.index_of(key)] / coeff
                assert got == hom_count(g, rep)
        for key in alpha.support():
            recover_hom(system, CountingOracle(mode, h), named["p4"], key)
        # One row solve per target, and each column of U from the first
        # target's on filled once, both kept for every later recovery.
        assert solves == [len(system.members)] * len(alpha)
        first = min(system.index_of(key) for key in alpha.support())
        assert sorted(filled) == list(range(first, len(system.members)))


def test_recover_rejects_target_outside_support(named):
    alpha = alpha_for_vsurj(named["k2"])
    system = build_system(alpha)
    oracle = CountingOracle("vsurj", named["k2"])
    with pytest.raises(ValueError):
        recover_hom(system, oracle, named["p3"], canonical_key(named["k3"]))


def test_recover_flags_inconsistent_oracle(named):
    alpha = alpha_for_vsurj(named["k2"])
    system = build_system(alpha)

    class LyingOracle:
        calls = 0

        def eval(self, g):
            self.calls += 1
            return vsurj_count(g, named["k2"]) + self.calls

    with pytest.raises(OracleMismatchError):
        recover_hom(system, LyingOracle(), named["p3"], canonical_key(named["k2"]))


def test_external_command_oracle_runs_cli(named, tmp_path, monkeypatch):
    # The child process imports the package from wherever this one did.
    paths = [str(Path(homcount.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
    h_path = tmp_path / "k2.graph"
    h_path.write_text(to_text(named["k2"]))
    oracle = ExternalCommandOracle(
        [
            sys.executable,
            "-m",
            "homcount",
            "count",
            "--kind",
            "vsurj",
            "--h",
            str(h_path),
            "--g",
            "-",
            "--format",
            "plain",
        ]
    )
    assert oracle.eval(named["p3"]) == 2
    alpha = alpha_for_vsurj(named["k2"])
    system = build_system(alpha)
    assert recover_hom(system, oracle, named["p3"], canonical_key(named["k2"])) == 2


def test_external_command_oracle_rejects_garbage():
    oracle = ExternalCommandOracle([sys.executable, "-c", "print('not a number')"])
    with pytest.raises(RuntimeError):
        oracle.eval(Graph(1))
    failing = ExternalCommandOracle([sys.executable, "-c", "raise SystemExit(3)"])
    with pytest.raises(RuntimeError):
        failing.eval(Graph(1))


def test_external_command_oracle_reads_only_decimal_replies(named, monkeypatch):
    # int() reads the first two replies as 12: one has a digit separator,
    # the other Arabic-Indic digits.  The third is not UTF-8.
    for reply in (b"1_2\n", "\u0661\u0662\n".encode(), b"\xff12\n"):
        write = f"import sys; sys.stdout.buffer.write({reply!r})"
        oracle = ExternalCommandOracle([sys.executable, "-c", write])
        with pytest.raises(RuntimeError, match="not a decimal integer"):
            oracle.eval(Graph(1))
    # A negative reply is read as such, and recovery refuses it.
    paths = [str(Path(homcount.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
    negated = ExternalCommandOracle([sys.executable, "-c", (
        "import sys\n"
        "from homcount.counting import vsurj_count\n"
        "from homcount.graphs import complete_graph, parse_graph\n"
        "print(-vsurj_count(parse_graph(sys.stdin.read()), complete_graph(2)))\n")])
    assert negated.eval(named["p3"]) == -2
    system = build_system(alpha_for_vsurj(named["k2"]))
    with pytest.raises(OracleMismatchError):
        recover_hom(system, negated, named["p3"], canonical_key(named["k2"]))


def test_external_command_oracle_times_out(monkeypatch):
    monkeypatch.setattr(interpolation, "ORACLE_TIMEOUT_S", 0.2)
    sleeper = ExternalCommandOracle([sys.executable, "-c", "import time; time.sleep(60)"])
    with pytest.raises(RuntimeError, match="timed out after 0.2 s"):
        sleeper.eval(Graph(1))


def test_reduction_demo_vsurj(named):
    report = reduction_demo(named["k3"], "vsurj", named["c5"])
    assert report["mode"] == "vsurj"
    assert report["oracle_queries"] == len(report["closed_set"])
    (target,) = report["targets"]
    assert target["recovered"] == "30"
    assert target["ground_truth"] == "30"
    assert target["match"] is True


def test_reduction_demo_vesurj_adds_hard_edge_target(named):
    report = reduction_demo(named["k22"], "vesurj", named["p3"])
    assert report["hard_edge"] == [0, 2]
    assert [t["recovered"] for t in report["targets"]] == ["16", "10"]
    assert all(t["match"] for t in report["targets"])


def test_reduction_demo_rejects_bad_mode(named):
    with pytest.raises(ValueError):
        reduction_demo(named["k2"], "hom", named["p3"])


def test_reduction_demo_reuses_system_across_labelings(monkeypatch, named):
    interpolation._reduction_system.cache_clear()
    first = reduction_demo(named["k22"], "vesurj", named["p3"])
    builds = []
    build = interpolation.build_system

    def counting(alpha):
        builds.append(alpha)
        return build(alpha)

    monkeypatch.setattr(interpolation, "build_system", counting)
    # K2,2 drawn as the cycle 0-1-2-3: its smallest edge is (0, 1), not (0, 2).
    relabeled = Graph(4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    second = reduction_demo(relabeled, "vesurj", named["p3"])
    assert builds == []
    assert second["h"] == to_text(relabeled)
    assert second["hard_edge"] == list(find_hard_edge(relabeled)) == [0, 1]
    assert first["hard_edge"] == [0, 2]
    for field in ("h", "hard_edge"):
        del first[field], second[field]
    assert second == first


def test_reduction_demo_queries_once_per_member_for_two_targets(named):
    report = reduction_demo(named["k22"], "vesurj", named["p3"])
    assert len(report["targets"]) == 2
    assert report["oracle_queries"] == len(report["closed_set"])


def test_warm_system_still_flags_inconsistent_oracle(named):
    for mode, h in (("vsurj", named["k2"]), ("vesurj", named["k22"])):
        reduction_demo(h, mode, named["p3"])
        counter = vsurj_count if mode == "vsurj" else vesurj_count

        class LyingOracle:
            calls = 0

            def eval(self, g):
                self.calls += 1
                return counter(g, h) + self.calls

        with pytest.raises(OracleMismatchError):
            reduction_demo(h, mode, named["p3"], oracle=LyingOracle())


def test_system_cache_is_bounded(monkeypatch, named):
    real = interpolation._reduction_system
    assert real.cache_info().maxsize == interpolation.SYSTEM_CACHE_SIZE
    # lru_cache reads its bound once, so a smaller one needs a new cache.
    bound = 3
    monkeypatch.setattr(interpolation, "_reduction_system",
                        functools.lru_cache(maxsize=bound)(real.__wrapped__))
    cached = interpolation._reduction_system
    targets = [named[name] for name in ("k1", "l1", "k2", "p3", "k3")]
    for h in targets:
        for mode in ("vsurj", "vesurj"):
            reduction_demo(h, mode, named["p3"])
            assert cached.cache_info().currsize <= bound
    assert cached.cache_info().currsize == bound
    assert cached.cache_info().misses == 2 * len(targets)


def test_reduction_demo_reports_equal_from_cold_and_warm_systems(named):
    # K2,2 under vesurj also reports its hard-edge deletion as a target.
    for h, mode, g in ((named["k22"], "vesurj", named["p3"]), (named["k3"], "vsurj", named["c5"]),
                       (named["r2"], "vesurj", named["p4"])):
        interpolation._reduction_system.cache_clear()
        cold = reduction_demo(h, mode, g)
        warm = reduction_demo(h, mode, g)
        assert warm == cold
        # g and the targets are read per call: another source shares the
        # system and its rendered entries, but not its report.
        other = reduction_demo(h, mode, named["k2"])
        assert other["alpha"] == cold["alpha"] and other["closed_set"] == cold["closed_set"]
        assert other["g"] == to_text(named["k2"]) != cold["g"]
        assert all(t["ground_truth"] == str(hom_count(named["k2"], parse_graph(t["graph"])))
                   for t in other["targets"])


def test_reduction_demo_reports_do_not_share_their_entries(named):
    h, g = named["k22"], named["p3"]
    interpolation._reduction_system.cache_clear()
    first = reduction_demo(h, "vesurj", g)
    want = copy.deepcopy(first)
    second = reduction_demo(h, "vesurj", g)
    assert second == want
    for entries in (second["alpha"], second["closed_set"]):
        entries[0]["graph"] = "mutated"
        entries[-1].clear()
        entries.append({"key": "extra"})
    first["alpha"].clear()
    first["closed_set"].clear()
    assert reduction_demo(h, "vesurj", g) == want
