"""Acceptance gate: one criterion per test, one [PASS]/[FAIL] line each.

Every expected value is either exact algebra (zero tolerance throughout;
all arithmetic is integer or rational) or an independently derived frozen
constant.  Randomized sweeps use fixed seeds.  The stated wall-clock
budgets are asserted, not just hoped for.
"""

import random
import time
from itertools import combinations

from homcount.canonical import canonical_key, enumerate_graphs
from homcount.counting import aut_count, hom_count, vesurj_count, vsurj_count
from homcount.errors import SingularSystemError
from homcount.families import (
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
    induced_subgraph,
    path_graph,
    reflexive_clique,
)
from homcount.interpolation import (
    CountingOracle,
    alpha_for_vesurj,
    alpha_for_vsurj,
    build_system,
    closed_set,
    lovasz_matrix,
    recover_hom,
)
from homcount.inversion import (
    dsub_count,
    dsub_downset,
    dsub_inverse_column,
    verify_expansions,
    vesurj_via_inversion,
    vsurj_via_inversion,
)

from .conftest import acceptance_lines, random_graph
from .test_cli import GOLDEN, GOLDEN_CASES


def record(ok: bool, number: int, label: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {number}: {label}{suffix}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def check_identities(g: Graph, h: Graph) -> list[str]:
    problems = []
    hom = hom_count(g, h)
    by_subsets = sum(
        vsurj_count(g, induced_subgraph(h, s))
        for r in range(h.n + 1)
        for s in combinations(range(h.n), r)
    )
    if hom != by_subsets:
        problems.append(f"hom != subset sum of vsurj at {(g, h)}")
    by_downset = sum(
        mult * vesurj_count(g, rep) for _, rep, mult in dsub_downset(h)
    )
    if hom != by_downset:
        problems.append(f"hom != downset sum of vesurj at {(g, h)}")
    if vsurj_via_inversion(g, h) != vsurj_count(g, h):
        problems.append(f"vsurj inversion mismatch at {(g, h)}")
    if vesurj_via_inversion(g, h) != vesurj_count(g, h):
        problems.append(f"vesurj inversion mismatch at {(g, h)}")
    return problems


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    report = verify_expansions(3)
    problems = [
        "{identity} at ({g!r}, {h!r})".format(**v) for v in report["violations"]
    ]
    rng = random.Random(2026)
    four = [rep for _, rep in enumerate_graphs(4) if rep.n == 4]
    for _ in range(200):
        problems.extend(check_identities(rng.choice(four), rng.choice(four)))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 120.0
    record(
        ok,
        1,
        "both expansion identities and both inversions, exact",
        f"{report['checks']} checks on 3-vertex classes + 200 sampled 4-vertex "
        f"pairs, {elapsed:.1f}s" + (f"; first problem: {problems[0]}" if problems else ""),
    )


def test_criterion_2_diagonal_identity():
    bad = []
    classes = enumerate_graphs(4)
    for _, h in classes:
        a = aut_count(h)
        if vsurj_count(h, h) != a or vesurj_count(h, h) != a:
            bad.append(h)
    record(
        not bad,
        2,
        "surjective self-counts equal automorphism counts",
        f"{len(classes)} classes up to 4 vertices",
    )


def test_criterion_3_multiplicativity():
    rng = random.Random(2027)
    bad = []
    for _ in range(500):
        g = random_graph(rng, 3)
        f = random_graph(rng, 3)
        h = random_graph(rng, 3)
        if hom_count(disjoint_union(g, f), h) != hom_count(g, h) * hom_count(f, h):
            bad.append((g, f, h))
    record(not bad, 3, "hom counts multiply over disjoint unions", "500 random triples")


def test_criterion_4_inversion_consistency():
    bad = []
    classes = enumerate_graphs(4)
    for _, h in classes:
        column = dsub_inverse_column(h)
        h_key = canonical_key(h)
        for f_key, f_rep, _ in dsub_downset(h):
            total = sum(
                coeff * dsub_count(f_rep, rep) for _, rep, coeff in column.items()
            )
            if total != (1 if f_key == h_key else 0):
                bad.append((f_rep, h))
        for e in sorted(h.edges):
            reduced = delete_nonloop_edge(h, e)
            if column.coeff(canonical_key(reduced)) != -dsub_count(reduced, h):
                bad.append((h, e))
    record(
        not bad,
        4,
        "inverse column solves the deletion-count system; edge-deletion "
        "entries are negated counts",
        f"{len(classes)} columns",
    )


def test_criterion_5_dichotomy_structure():
    bad = []
    classes = enumerate_graphs(4)
    for _, h in classes:
        in_f = classify_F(h)[0]
        in_c = classify_C(h)[0]
        if in_c and not in_f:
            bad.append(("inclusion", h))
        if in_f:
            for r in range(h.n + 1):
                for s in combinations(range(h.n), r):
                    if not classify_F(induced_subgraph(h, s))[0]:
                        bad.append(("vertex deletion", h, s))
        if in_c:
            for _, rep, _ in dsub_downset(h):
                if not classify_C(rep)[0]:
                    bad.append(("dsub deletion", h, rep))
        if in_f and not in_c:
            e = find_hard_edge(h)
            if classify_F(delete_nonloop_edge(h, e))[0]:
                bad.append(("hard edge", h, e))
    record(
        not bad,
        5,
        "family inclusion, closure under deletions, and hard edges",
        f"{len(classes)} classes up to 4 vertices",
    )


def test_criterion_6_polytime_equals_bruteforce():
    bad = []
    classes = [rep for _, rep in enumerate_graphs(4)]
    f_targets = [h for h in classes if classify_F(h)[0]]
    c_targets = [h for h in classes if classify_C(h)[0]]
    for h in f_targets:
        for g in classes:
            if hom_polytime(g, h) != hom_count(g, h):
                bad.append(("hom", g, h))
            if vsurj_polytime(g, h) != vsurj_count(g, h):
                bad.append(("vsurj", g, h))
    for h in c_targets:
        for g in classes:
            if vesurj_polytime(g, h) != vesurj_count(g, h):
                bad.append(("vesurj", g, h))

    wide = disjoint_union(
        disjoint_union(cycle_graph(7), path_graph(20)),
        disjoint_union(
            disjoint_union(complete_graph(5), biclique(3, 3)),
            disjoint_union(cycle_graph(11), path_graph(11)),
        ),
    )
    assert wide.n == 60
    target = disjoint_union(biclique(2, 3), reflexive_clique(2))
    start = time.perf_counter()
    value = hom_polytime(wide, target)
    wide_elapsed = time.perf_counter() - start
    if value <= 0:
        bad.append(("wide value", value))
    if wide_elapsed >= 1.0:
        bad.append(("wide runtime", wide_elapsed))
    loopfree_target = biclique(2, 3)
    if hom_polytime(wide, loopfree_target) != 0:
        bad.append(("wide zero case",))
    record(
        not bad,
        6,
        "closed-form counters equal brute force; 60-vertex source stays fast",
        f"{len(f_targets)} hom/vsurj targets, {len(c_targets)} vesurj targets, "
        f"wide case {wide_elapsed * 1000:.0f}ms",
    )


def test_criterion_7_interpolation_matrix_invertible():
    bad = []
    classes = enumerate_graphs(4)
    for _, h in classes:
        try:
            system = lovasz_matrix(closed_set([h]))
        except SingularSystemError:
            bad.append(h)
            continue
        if system.det == 0:
            bad.append(h)
    record(
        not bad,
        7,
        "hom matrix of every single-seed closed set has nonzero determinant",
        f"{len(classes)} closed sets",
    )


def test_criterion_8_end_to_end_recovery():
    start = time.perf_counter()
    bad = []
    classes = [rep for _, rep in enumerate_graphs(3)]
    recoveries = 0
    for h in classes:
        h_key = canonical_key(h)
        vs_system = build_system(alpha_for_vsurj(h))
        ve_system = build_system(alpha_for_vesurj(h))
        reduced = [delete_nonloop_edge(h, e) for e in sorted(h.edges)]
        for g in classes:
            vs_oracle = CountingOracle("vsurj", h)
            got = recover_hom(vs_system, vs_oracle, g, h_key)
            if got != hom_count(g, h):
                bad.append(("vsurj", g, h))
            recoveries += 1
            ve_oracle = CountingOracle("vesurj", h)
            got = recover_hom(ve_system, ve_oracle, g, h_key)
            if got != hom_count(g, h):
                bad.append(("vesurj", g, h))
            recoveries += 1
            for r in reduced:
                got = recover_hom(ve_system, ve_oracle, g, canonical_key(r))
                if got != hom_count(g, r):
                    bad.append(("vesurj edge-deleted", g, h, r))
                recoveries += 1
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    record(
        ok,
        8,
        "oracle recovery returns exact hom counts for all pairs up to 3 vertices",
        f"{recoveries} recoveries, {elapsed:.1f}s",
    )


def test_criterion_9_cli_golden_outputs(capsys):
    from homcount import cli

    bad = []
    for golden_name, argv in GOLDEN_CASES:
        code = cli.main(argv)
        out = capsys.readouterr().out
        if code != 0 or out != (GOLDEN / golden_name).read_text():
            bad.append(golden_name)
    with capsys.disabled():
        record(
            not bad,
            9,
            "all 12 command-line invocations byte-match their golden outputs",
            f"{len(GOLDEN_CASES)} invocations" + (f"; first: {bad[0]}" if bad else ""),
        )
