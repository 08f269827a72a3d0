"""Naive reference counters used only by the tests.

Everything here works on plain Graph objects through the most literal
definition available: enumerate all vertex maps, all permutations, all set
partitions, or all deletion pairs, and filter.  No sharing of logic with
the package beyond the Graph container itself, so agreement between the
two is meaningful.
"""

import itertools
from fractions import Fraction

from homcount.graphs import Graph, induced_subgraph


def is_hom(g: Graph, h: Graph, phi) -> bool:
    for v in g.loops:
        if phi[v] not in h.loops:
            return False
    for u, v in g.edges:
        a, b = phi[u], phi[v]
        if a == b:
            if a not in h.loops:
                return False
        elif (min(a, b), max(a, b)) not in h.edges:
            return False
    return True


def all_homs(g: Graph, h: Graph):
    if g.n == 0:
        yield ()
        return
    for phi in itertools.product(range(h.n), repeat=g.n):
        if is_hom(g, h, phi):
            yield phi


def naive_hom(g: Graph, h: Graph) -> int:
    return sum(1 for _ in all_homs(g, h))


def naive_vsurj(g: Graph, h: Graph) -> int:
    full = set(range(h.n))
    return sum(1 for phi in all_homs(g, h) if set(phi) == full)


def naive_vesurj(g: Graph, h: Graph) -> int:
    full_v = set(range(h.n))
    count = 0
    for phi in all_homs(g, h):
        if set(phi) != full_v:
            continue
        covered = set()
        for u, v in g.edges:
            a, b = phi[u], phi[v]
            if a != b:
                covered.add((min(a, b), max(a, b)))
        if covered == h.edges:
            count += 1
    return count


def naive_aut(h: Graph) -> int:
    count = 0
    for p in itertools.permutations(range(h.n)):
        if all((p[v] in h.loops) == (v in h.loops) for v in range(h.n)) and all(
            ((min(p[u], p[v]), max(p[u], p[v])) in h.edges) == ((u, v) in h.edges)
            for u in range(h.n)
            for v in range(u + 1, h.n)
        ):
            count += 1
    return count


def naive_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or len(g.loops) != len(h.loops) or len(g.edges) != len(h.edges):
        return False
    for p in itertools.permutations(range(g.n)):
        if all((p[v] in h.loops) == (v in g.loops) for v in range(g.n)) and all(
            ((min(p[u], p[v]), max(p[u], p[v])) in h.edges) == ((u, v) in g.edges)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def naive_min_encoding(g: Graph) -> int:
    """Least encoding over all vertex orders p: the loop bits of p[0..n-1],
    then whether p[i] ~ p[j] for i < j in row-major order, read as a binary
    number with the first bit most significant."""
    loop = [int(v in g.loops) for v in range(g.n)]
    adj = [[int((min(u, v), max(u, v)) in g.edges) for v in range(g.n)] for u in range(g.n)]
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    best = min(
        [loop[v] for v in p] + [adj[p[i]][p[j]] for i, j in pairs]
        for p in itertools.permutations(range(g.n))
    )
    return int("".join(map(str, best)) or "0", 2)


def naive_set_partitions(n: int):
    """Every partition of 0..n-1 into nonempty blocks, each exactly once."""
    if n == 0:
        yield []
        return
    for rest in naive_set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] | {n - 1}] + rest[i + 1:]
        yield rest + [{n - 1}]


def naive_quotient(h: Graph, partition) -> Graph:
    """One vertex per block; a block is looped when it holds a looped vertex
    or both ends of an edge, and two blocks are adjacent when an edge joins
    them."""
    blocks = [set(b) for b in partition]
    loops = [
        i for i, b in enumerate(blocks)
        if b & h.loops or any(u in b and v in b for u, v in h.edges)
    ]
    edges = [
        (i, j)
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
        if any((u in blocks[i] and v in blocks[j]) or (u in blocks[j] and v in blocks[i])
               for u, v in h.edges)
    ]
    return Graph(len(blocks), loops, edges)


def naive_deletion_pairs(h: Graph):
    for r in range(h.n + 1):
        for vs in itertools.combinations(range(h.n), r):
            sub = induced_subgraph(h, vs)
            plain = sorted(sub.edges)
            for k in range(len(plain) + 1):
                for keep in itertools.combinations(plain, k):
                    yield Graph(sub.n, sub.loops, frozenset(keep))


def naive_dsub(f: Graph, h: Graph) -> int:
    return sum(1 for g in naive_deletion_pairs(h) if naive_isomorphic(g, f))


def naive_ind(f: Graph, h: Graph) -> int:
    return sum(
        1
        for vs in itertools.combinations(range(h.n), f.n)
        if naive_isomorphic(induced_subgraph(h, vs), f)
    )


def naive_classes(graphs):
    """Group an iterable of graphs into isomorphism classes: (rep, count)."""
    reps = []
    counts = []
    for g in graphs:
        for i, r in enumerate(reps):
            if naive_isomorphic(g, r):
                counts[i] += 1
                break
        else:
            reps.append(g)
            counts.append(1)
    return list(zip(reps, counts))


def _naive_distances(g: Graph, root: int) -> dict:
    """Distance from root to every vertex it reaches, from relaxing every
    edge until nothing changes."""
    dist = {root: 0}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in dist and (b not in dist or dist[a] + 1 < dist[b]):
                    dist[b] = dist[a] + 1
                    changed = True
    return dist


def _naive_component_distances(g: Graph):
    """Per connected component, from its smallest vertex up, the distances
    of its vertices from that vertex."""
    out = []
    placed = set()
    for root in range(g.n):
        if root not in placed:
            dist = _naive_distances(g, root)
            placed.update(dist)
            out.append(dist)
    return out


def naive_components(g: Graph):
    """Per connected component, from its smallest vertex up: its sorted
    vertices, looped vertex count, non-loop edge count, and the numbers of
    its vertices at even and odd distance from its smallest vertex, or None
    when some edge joins two vertices of equal parity (an odd cycle)."""
    out = []
    for dist in _naive_component_distances(g):
        comp = sorted(dist)
        edges = [(u, v) for u, v in g.edges if u in dist]
        even = sum(1 for v in comp if dist[v] % 2 == 0)
        parts = (even, len(comp) - even)
        if any(dist[u] % 2 == dist[v] % 2 for u, v in edges):
            parts = None
        out.append((comp, sum(1 for v in comp if v in g.loops), len(edges), parts))
    return out


def naive_families(h: Graph):
    """(in F, in C, component labels) straight from the definitions.  A
    component is a reflexive clique when every vertex is looped and every
    two are adjacent, and a biclique when no vertex is looped and two
    vertices are adjacent exactly when their distances from the smallest
    one differ in parity.  F asks every component to be one of these; C
    asks each biclique to have a side of at most one vertex and each
    reflexive clique at most two vertices."""
    labels, in_c = [], True
    for dist in _naive_component_distances(h):
        comp = sorted(dist)
        pairs = list(itertools.combinations(comp, 2))
        if all(v in h.loops for v in comp) and all(p in h.edges for p in pairs):
            labels.append(f"reflexive_clique({len(comp)})")
            in_c = in_c and len(comp) <= 2
        elif not any(v in h.loops for v in comp) and all(
            ((u, v) in h.edges) == (dist[u] % 2 != dist[v] % 2) for u, v in pairs
        ):
            odd = sum(dist[v] % 2 for v in comp)
            sides = sorted((odd, len(comp) - odd), reverse=True)
            labels.append(f"biclique({sides[0]},{sides[1]})")
            in_c = in_c and sides[1] <= 1
        else:
            labels.append("unrecognized")
            in_c = False
    return "unrecognized" not in labels, in_c, labels


def naive_hard_edge(h: Graph):
    """The least non-loop edge whose deletion takes h out of naive F, or
    None when no deletion does."""
    for e in sorted(h.edges):
        if not naive_families(Graph(h.n, h.loops, h.edges - {e}))[0]:
            return e
    return None


def naive_all_graphs(n: int):
    """Every labeled graph with loops on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for loop_bits in range(1 << n):
        loops = frozenset(v for v in range(n) if loop_bits >> v & 1)
        for edge_bits in range(1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs)) if edge_bits >> i & 1)
            yield Graph(n, loops, edges)


def naive_solve(a, b):
    """Solve A X = B over the rationals by Gauss-Jordan elimination, for a
    square nonsingular A and B given as rows; X comes back as rows of
    Fractions."""
    n = len(a)
    rows = [[Fraction(x) for x in a_row] + [Fraction(x) for x in b_row]
            for a_row, b_row in zip(a, b)]
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def naive_inverse_column(h: Graph):
    """Solve the deletion-subgraph system for the column at h with Fractions.

    Returns (rep, coefficient) pairs with zero entries dropped.
    """
    reps = [r for r, _ in naive_classes(naive_deletion_pairs(h))]
    m = len(reps)
    a = [[naive_dsub(reps[i], reps[j]) for j in range(m)] for i in range(m)]
    rhs = [[1 if naive_isomorphic(reps[i], h) else 0] for i in range(m)]
    column = naive_solve(a, rhs)
    return [(reps[i], column[i][0]) for i in range(m) if column[i][0] != 0]
