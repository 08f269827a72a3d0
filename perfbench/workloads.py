"""Seeded inputs and output checks for the benchmark's four workloads.

An op is a tuple of ``homcount`` command-line arguments in which graph
arguments appear as reference-form graphs ``(n, loops, edges)``; the
worker writes each distinct graph to a file and passes its path.  The same
seed always yields the same op list.  Only labels and the shapes of trees
depend on the seed: every op slot has a fixed kind, target family and
source size, and the sources of brute-force ops are trees or cycles into
targets whose vertices all have the same number of neighbours (a looped
vertex counting itself), so hom(source, target), and with it the
kernel's work, does not depend on the seed.  That keeps medians and tails
comparable between seeds.

A workload's ``check(ops, codes, outs)`` takes one round's exit codes and
outputs and returns, per op, None when the output is right or a message
saying what is wrong, judged against ``reference`` alone.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Callable, NamedTuple

import reference as ref

# --- graph builders (reference form) ---------------------------------------


def _shuffled(rng, g):
    perm = list(range(g[0]))
    rng.shuffle(perm)
    return ref.relabel(g, perm)


def clique(k):
    return ref.graph(k, (), itertools.combinations(range(k), 2))


def reflexive_clique(k):
    return ref.graph(k, range(k), itertools.combinations(range(k), 2))


def biclique(a, b):
    return ref.graph(a + b, (), ((i, a + j) for i in range(a) for j in range(b)))


def cycle(k):
    return ref.graph(k, (), [(i, (i + 1) % k) for i in range(k)])


def path(k):
    return ref.graph(k, (), [(i, i + 1) for i in range(k - 1)])


def looped(g, vertices):
    return ref.graph(g[0], set(g[1]) | set(vertices), g[2])


def tree(rng, k):
    return ref.graph(k, (), [(i, rng.randrange(i)) for i in range(1, k)])


def unicyclic(rng, k):
    """A cycle on a seeded number of vertices with trees hung from it."""
    c = rng.randint(3, max(3, k // 2))
    edges = [(i, (i + 1) % c) for i in range(c)]
    edges += [(i, rng.randrange(i)) for i in range(c, k)]
    return ref.graph(k, (), edges)


def sparse_source(rng, n):
    """n vertices split into trees, cycles and unicyclic parts of 4..12."""
    parts = []
    left = n
    while left:
        k = min(left, rng.randint(4, 12))
        if left - k < 4:
            k = left
        shape = rng.choice(("tree", "cycle", "unicyclic"))
        if k < 3:
            shape = "tree"
        parts.append(tree(rng, k) if shape == "tree" else cycle(k) if shape == "cycle" else unicyclic(rng, k))
        left -= k
    return _shuffled(rng, ref.disjoint_union(*parts))


# --- count-mix ---------------------------------------------------------------

# Targets in F (hom, vsurj) or in C (vesurj) take the closed-form path.  The
# vsurj and vesurj targets stay at four vertices or fewer, which keeps the
# closed-form ops in the cheap cluster.
POLY_HOM = [biclique(2, 3), biclique(3, 4), biclique(1, 5), reflexive_clique(3),
            reflexive_clique(4), ref.disjoint_union(biclique(2, 2), reflexive_clique(1)),
            clique(2), ref.disjoint_union(reflexive_clique(1), biclique(1, 2))]
POLY_VSURJ = [biclique(1, 2), biclique(2, 2), reflexive_clique(2), biclique(1, 3),
              ref.disjoint_union(clique(2), reflexive_clique(1))]
POLY_VESURJ = [biclique(1, 2), biclique(1, 3), reflexive_clique(2), clique(2),
               ref.disjoint_union(biclique(1, 2), reflexive_clique(1))]

# Targets outside F, each vertex with three neighbours: K4, and the 4-cycle
# with every loop (two neighbours plus itself).
K4 = clique(4)
RC4 = looped(cycle(4), range(4))
# (kind, target, source shape, source size, copies).  The 20 heavy ops sort
# into three blocks of near-equal cost: 6 of 35-45 ms, 8 of ~60 ms and 6 of
# 90 ms or more.  The tail (p90 of 100 ops) is the 11th-slowest op, in the
# middle of the 60 ms block, so noise that swaps neighbours cannot move it.
BRUTE = [
    ("hom", K4, "tree", 9, 2), ("hom", RC4, "tree", 9, 2), ("hom", K4, "cycle", 9, 2),
    ("vsurj", RC4, "tree", 9, 8),
    ("vesurj", K4, "tree", 9, 2), ("hom", K4, "tree", 10, 1), ("hom", RC4, "cycle", 10, 1),
    ("vsurj", K4, "cycle", 10, 2),
]
# Triangles from 12-vertex trees: a few ms, between the two clusters.
BRUTE_SMALL = [("hom", clique(3), "tree", 12), ("vsurj", clique(3), "tree", 12),
               ("vesurj", clique(3), "cycle", 12), ("hom", clique(3), "cycle", 12)]
AUT = [cycle(6), cycle(7), cycle(8), cycle(9),
       ref.disjoint_union(path(3), path(3)), ref.disjoint_union(cycle(3), cycle(4)),
       ref.disjoint_union(clique(3), path(4)), looped(cycle(8), (0, 4)),
       ref.disjoint_union(cycle(4), clique(2), clique(2)), looped(path(7), (0, 6))]

COUNT_POLY_OPS = 66


def _brute_source(rng, shape, k):
    g = tree(rng, k) if shape == "tree" else cycle(k)
    return _shuffled(rng, g)


def count_ops(seed):
    rng = random.Random(seed)
    ops = []
    for i in range(COUNT_POLY_OPS):
        n = 20 + (40 * i) // (COUNT_POLY_OPS - 1)
        if i % 4 < 2:
            kind, targets = "hom", POLY_HOM
        elif i % 4 == 2:
            kind, targets = "vsurj", POLY_VSURJ
        else:
            kind, targets = "vesurj", POLY_VESURJ
        h = _shuffled(rng, targets[(i // 4) % len(targets)])
        ops.append(("count", "--kind", kind, "--g", sparse_source(rng, n), "--h", h))
    for kind, h, shape, k, copies in BRUTE:
        for _ in range(copies):
            ops.append(("count", "--kind", kind, "--g", _brute_source(rng, shape, k),
                        "--h", _shuffled(rng, h)))
    for kind, h, shape, k in BRUTE_SMALL:
        ops.append(("count", "--kind", kind, "--g", _brute_source(rng, shape, k),
                    "--h", _shuffled(rng, h)))
    for h in AUT:
        ops.append(("count", "--kind", "aut", "--h", _shuffled(rng, h)))
    rng.shuffle(ops)
    return ops


def count_warmup(seed):
    """One small op per distinct (kind, target) family of the workload."""
    rng = random.Random(seed ^ 0x5EED)
    ops = []
    for kind, targets in (("hom", POLY_HOM), ("vsurj", POLY_VSURJ), ("vesurj", POLY_VESURJ)):
        for h in targets:
            ops.append(("count", "--kind", kind, "--g", sparse_source(rng, 8), "--h", h))
    for kind, h in (("hom", K4), ("vsurj", RC4), ("vesurj", clique(3))):
        ops.append(("count", "--kind", kind, "--g", path(5), "--h", h))
    ops.append(("count", "--kind", "aut", "--h", cycle(5)))
    return ops


def _arg(op, flag):
    return op[op.index(flag) + 1]


def check_count(op, code, out):
    if code != 0:
        return f"exit {code}"
    got = int(json.loads(out)["count"])
    kind = _arg(op, "--kind")
    h = _arg(op, "--h")
    want = ref.aut(h) if kind == "aut" else {"hom": ref.hom, "vsurj": ref.vsurj,
                                             "vesurj": ref.vesurj}[kind](_arg(op, "--g"), h)
    return None if got == want else f"count {got}, reference {want}"


# --- recover-mix -------------------------------------------------------------

# (name, target, source slots in vsurj mode, in vesurj mode); slots index
# RECOVER_SOURCES.  Targets in F but not C (k22, k23, rk3) add the hard-edge
# deletion as a second target in vesurj mode.  Slots are weighted so no
# target dominates the round, and so the tail (p90 of 105 ops: the
# 11th-slowest) falls among the six equal k4 vesurj ops of about 40 ms, below
# the six ops of 80 ms or more.
_S4, _S6 = range(4), range(6)
RECOVER_POOL = [
    ("k2", clique(2), _S6, _S6),
    ("k3", clique(3), _S6, _S6),
    ("p3", path(3), _S6, _S6),
    ("k22", biclique(2, 2), _S6, _S4),
    ("star3", biclique(1, 3), _S6, _S4),
    ("k23", biclique(2, 3), _S4, [0]),
    ("c5", cycle(5), _S4, [0, 1]),
    ("k4", clique(4), _S4, [0] * 6),
    ("lc4", looped(cycle(4), (0,)), _S4, [0, 1]),
    ("rk2", reflexive_clique(2), _S6, _S6),
    ("rk3", reflexive_clique(3), _S6, _S4),
]
HARD_EDGE = {"k22", "k23", "rk3"}


# Source slots (vertices, shape, loops), used in turn for each (target, mode).
# The seed picks labels and loop positions only: source structure sets the
# oracle's work, so fixing it per slot keeps costs equal across seeds.
RECOVER_SOURCES = [(2, "path", 0), (3, "path", 1), (4, "cycle", 0), (5, "path", 1),
                   (3, "cycle", 1), (4, "path", 0), (5, "cycle", 0), (2, "path", 1)]


def recover_source(rng, k, shape, n_loops):
    g = _shuffled(rng, cycle(k) if shape == "cycle" else path(k))
    return looped(g, rng.sample(range(k), n_loops))


def recover_ops(seed):
    rng = random.Random(seed)
    ops = []
    for name, h, vsurj_slots, vesurj_slots in RECOVER_POOL:
        for mode, slots in (("vsurj", vsurj_slots), ("vesurj", vesurj_slots)):
            for i in slots:
                g = recover_source(rng, *RECOVER_SOURCES[i])
                ops.append(("recover", "--mode", mode, "--g", g, "--h", h))
    rng.shuffle(ops)
    return ops


def recover_warmup(seed):
    """One op per distinct (target, mode), each with the same small source."""
    return [("recover", "--mode", mode, "--g", path(2), "--h", h)
            for _, h, _, _ in RECOVER_POOL for mode in ("vsurj", "vesurj")]


def check_recover(op, code, out):
    if code != 0:
        return f"exit {code}"
    report = json.loads(out)
    g, h = _arg(op, "--g"), _arg(op, "--h")
    name = next(nm for nm, t, _, _ in RECOVER_POOL if t == h)
    targets = report["targets"]
    want_targets = 2 if (_arg(op, "--mode") == "vesurj" and name in HARD_EDGE) else 1
    if len(targets) != want_targets:
        return f"{len(targets)} targets, expected {want_targets}"
    first = ref.from_text(targets[0]["graph"])
    if not ref.isomorphic(first, h):
        return "first target is not the input target"
    if want_targets == 2:
        second = ref.from_text(targets[1]["graph"])
        if not any(ref.isomorphic(second, ref.graph(h[0], h[1], h[2] - {e})) for e in h[2]):
            return "second target is not the target less one edge"
    for t in targets:
        want = ref.hom(g, ref.from_text(t["graph"]))
        if int(t["recovered"]) != want:
            return f"recovered {t['recovered']}, reference {want}"
    return None


# --- images-mix --------------------------------------------------------------

# (vertices, loops, edges, graphs) per slot.  Loop and edge counts are fixed
# because min_encoding's work depends on them; the 8-vertex graphs are also
# 3-regular, which halves the spread of their cost (coefficient of variation
# 0.08 against 0.17 for 14 graphs each).  Each graph is two ops, so a round
# has 110 ops: the median falls among the 80 ops on 6 vertices, whose cost
# varies least from graph to graph, and the tail (p90) mid-way through the
# 20 on 8 vertices.
IMAGES_SLOTS = [(6, 2, 7, 40), (7, 3, 10, 5), (8, 3, 12, 10)]
REGULAR_SLOT_VERTICES = 8


def random_looped_graph(rng, n, n_loops, n_edges):
    pairs = list(itertools.combinations(range(n), 2))
    return ref.graph(n, rng.sample(range(n), n_loops), rng.sample(pairs, n_edges))


def random_regular_graph(rng, n, n_loops, n_edges):
    """Uniform over the d-regular graphs on n vertices (d = 2*n_edges/n), by
    pairing vertex stubs at random until no pair is a loop or a repeat."""
    d = 2 * n_edges // n
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == n_edges:
            return ref.graph(n, rng.sample(range(n), n_loops), edges)


def images_graph(rng, n, n_loops, n_edges):
    make = random_regular_graph if n == REGULAR_SLOT_VERTICES else random_looped_graph
    return make(rng, n, n_loops, n_edges)


def images_ops(seed):
    """Each graph twice in a row: as drawn, then relabelled (keys must not
    change).  Pairs are shuffled so every size spreads over the round."""
    rng = random.Random(seed)
    pairs = []
    for n, n_loops, n_edges, count in IMAGES_SLOTS:
        for _ in range(count):
            g = images_graph(rng, n, n_loops, n_edges)
            pairs.append([("images", "--h", g), ("images", "--h", _shuffled(rng, g))])
    rng.shuffle(pairs)
    return [op for pair in pairs for op in pair]


def images_warmup(seed):
    """Graphs outside the op list, one per slot: the inputs are all distinct,
    so there is no repeated target to warm."""
    rng = random.Random(seed ^ 0x5EED)
    return [("images", "--h", images_graph(rng, n, lp, m)) for n, lp, m, _ in IMAGES_SLOTS]


def check_images(op, code, out, least_cache):
    if code != 0:
        return f"exit {code}"
    entries = json.loads(out)
    keys = [e["key"] for e in entries]
    if len(set(keys)) != len(keys):
        return "duplicate keys"
    for e in entries:
        text = e["graph"]
        if text not in least_cache:
            rep = ref.from_text(text)
            least_cache[text] = ref.is_least_encoding(rep) and ref.pack_key(rep)
        if least_cache[text] is False:
            return "representative is not its own least encoding"
        if least_cache[text] != e["key"]:
            return "key does not pack the representative's encoding"
    return None


# --- verify-n4 ---------------------------------------------------------------

VERIFY_N_MAX = 4


def verify_ops(seed):
    return [("verify", "--n-max", str(VERIFY_N_MAX))]


def check_verify(op, code, out):
    if code != 0:
        return f"exit {code}"
    report = json.loads(out)
    classes = sum(ref.classes_with_loops(n) for n in range(VERIFY_N_MAX + 1))
    exp = report["sections"]["expansions"]
    if not report["ok"] or report["violations"] != 0:
        return "verify reports violations"
    if exp["classes"] != classes or exp["pairs"] != classes**2 or exp["checks"] != 4 * classes**2:
        return (f"classes/pairs/checks {exp['classes']}/{exp['pairs']}/{exp['checks']}, "
                f"expected {classes}/{classes**2}/{4 * classes**2}")
    return None


def per_op(check_one):
    """Round check built from a check of one op's output."""
    def check(ops, codes, outs):
        return [check_one(op, code, out) for op, code, out in zip(ops, codes, outs)]
    return check


def check_images_round(ops, codes, outs):
    """Each op alone, then each relabelled copy against its original."""
    least = {}  # representative text -> its packed key, or False
    errors = [check_images(op, code, out, least) for op, code, out in zip(ops, codes, outs)]
    for i in range(0, len(ops), 2):
        if errors[i] is None and errors[i + 1] is None:
            if [e["key"] for e in json.loads(outs[i])] != [e["key"] for e in json.loads(outs[i + 1])]:
                errors[i + 1] = "relabelled copy gives another key list"
    return errors


class Workload(NamedTuple):
    ops: Callable  # seed -> op list
    warmup: Callable  # seed -> warm-up op list
    check: Callable  # (ops, codes, outs) -> per-op error or None


WORKLOADS = {
    "count-mix": Workload(count_ops, count_warmup, per_op(check_count)),
    "recover-mix": Workload(recover_ops, recover_warmup, per_op(check_recover)),
    "images-mix": Workload(images_ops, images_warmup, check_images_round),
    "verify-n4": Workload(verify_ops, lambda seed: [], per_op(check_verify)),
}
