"""Reference values for checking homcount's outputs, computed without homcount.

Graphs here are plain tuples ``(n, loops, edges)``: vertices 0..n-1, a
frozenset of looped vertices and a frozenset of pairs (u, v) with u < v.
Nothing is imported from homcount, so an answer that agrees with these
functions was reached by two unrelated routes:

- hom into any small target: a product over the source's components of a
  tree recursion (forests), a trace of adjacency products around the
  cycle (unicyclic components), or plain enumeration of all maps
  (components of at most 7 vertices);
- vsurj and vesurj: inclusion-exclusion over the target's vertices and
  non-loop edges, on top of hom;
- aut: enumeration of vertex bijections, abandoning a partial bijection as
  soon as it breaks a loop, an edge or a non-edge;
- canonical keys: the lexicographically least encoding over all vertex
  orders (n loop bits, then the upper triangle row by row), searched with
  the same prefix rule that defines it.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import factorial

NAIVE_MAX_VERTICES = 7


def graph(n, loops=(), edges=()):
    """Normalize to the tuple form used throughout the benchmark."""
    return (
        n,
        frozenset(loops),
        frozenset((u, v) if u < v else (v, u) for u, v in edges),
    )


def relabel(g, perm):
    """perm[old] = new."""
    n, loops, edges = g
    return graph(n, (perm[v] for v in loops), ((perm[u], perm[v]) for u, v in edges))


def disjoint_union(*parts):
    n, loops, edges = 0, [], []
    for m, lp, ed in parts:
        loops.extend(v + n for v in lp)
        edges.extend((u + n, v + n) for u, v in ed)
        n += m
    return graph(n, loops, edges)


def to_text(g) -> str:
    n, loops, edges = g
    lines = [f"vertices {n}"]
    lines += [f"loop {v}" for v in sorted(loops)]
    lines += [f"edge {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def from_text(text: str):
    n, loops, edges = None, [], []
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "vertices":
            n = int(parts[1])
        elif parts[0] == "loop":
            loops.append(int(parts[1]))
        elif parts[0] == "edge":
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"unknown directive {parts[0]!r}")
    if n is None:
        raise ValueError("missing 'vertices' line")
    return graph(n, loops, edges)


def _neighbours(g):
    """Adjacency lists with each looped vertex listed as its own neighbour,
    so that a source edge may collapse onto a loop."""
    n, loops, edges = g
    nb = [[] for _ in range(n)]
    for u, v in edges:
        nb[u].append(v)
        nb[v].append(u)
    for v in loops:
        nb[v].append(v)
    return nb


def _plain_neighbours(g):
    n, _, edges = g
    nb = [[] for _ in range(n)]
    for u, v in edges:
        nb[u].append(v)
        nb[v].append(u)
    return nb


def components(g):
    """Vertex lists of the connected components (loops do not connect)."""
    nb = _plain_neighbours(g)
    seen = [False] * g[0]
    out = []
    for s in range(g[0]):
        if seen[s]:
            continue
        seen[s] = True
        comp, todo = [s], [s]
        while todo:
            v = todo.pop()
            for w in nb[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    todo.append(w)
        out.append(comp)
    return out


def _allowed(g, h, v):
    """Target vertices that source vertex v may map to on its own."""
    return [1 if (v not in g[1] or c in h[1]) else 0 for c in range(h[0])]


def _push(vec, h_nb):
    """out[c] = sum of vec[d] over the targets d that c may sit next to."""
    return [sum(vec[d] for d in h_nb[c]) for c in range(len(h_nb))]


def _tree_vectors(g, h, h_nb, g_nb, root, blocked):
    """Per-colour count of maps of the tree hanging from root (avoiding the
    vertices in blocked), with root mapped to each target vertex."""
    parent = {root: None}
    order = [root]
    for v in order:
        for w in g_nb[v]:
            if w not in parent and w not in blocked:
                parent[w] = v
                order.append(w)
    vec = {}
    for v in reversed(order):
        acc = _allowed(g, h, v)
        for w in g_nb[v]:
            if parent.get(w) == v:
                pushed = _push(vec.pop(w), h_nb)
                acc = [a * p for a, p in zip(acc, pushed)]
        vec[v] = acc
    return vec[root]


def _cycle_of(g_nb, comp):
    """Vertices of the single cycle of a unicyclic component, in cyclic order."""
    deg = {v: len(g_nb[v]) for v in comp}
    leaves = deque(v for v in comp if deg[v] == 1)
    gone = set()
    while leaves:
        v = leaves.popleft()
        gone.add(v)
        for w in g_nb[v]:
            if w not in gone:
                deg[w] -= 1
                if deg[w] == 1:
                    leaves.append(w)
    on_cycle = [v for v in comp if v not in gone]
    start = on_cycle[0]
    ring = [start]
    prev, cur = None, start
    while True:
        nxt = next(w for w in g_nb[cur] if w != prev and w not in gone)
        if nxt == start:
            return ring
        ring.append(nxt)
        prev, cur = cur, nxt


def _naive_component(g, h, comp):
    pos = {v: i for i, v in enumerate(comp)}
    loops = [pos[v] for v in comp if v in g[1]]
    edges = [(pos[u], pos[v]) for u, v in g[2] if u in pos and v in pos]
    count = 0
    for phi in itertools.product(range(h[0]), repeat=len(comp)):
        if all(phi[v] in h[1] for v in loops) and all(_adjacent(h, phi[u], phi[v]) for u, v in edges):
            count += 1
    return count


def _adjacent(h, a, b):
    return a in h[1] if a == b else (min(a, b), max(a, b)) in h[2]


def _hom_component(g, h, h_nb, g_nb, comp):
    inside = set(comp)
    m = sum(1 for u, v in g[2] if u in inside)
    if m == len(comp) - 1:
        return sum(_tree_vectors(g, h, h_nb, g_nb, comp[0], set()))
    if m == len(comp):
        ring = _cycle_of(g_nb, comp)
        on_ring = set(ring)
        # M = D_0 A D_1 A ... D_{k-1} A, where D_i weights the target colours
        # by the trees hanging off the i-th cycle vertex.
        size = h[0]
        adj = [[1 if d in h_nb[c] else 0 for d in range(size)] for c in range(size)]
        mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        for v in ring:
            w = _tree_vectors(g, h, h_nb, g_nb, v, on_ring - {v})
            step = [[w[c] * adj[c][d] for d in range(size)] for c in range(size)]
            mat = [[sum(mat[i][k] * step[k][j] for k in range(size)) for j in range(size)]
                   for i in range(size)]
        return sum(mat[i][i] for i in range(size))
    if len(comp) <= NAIVE_MAX_VERTICES:
        return _naive_component(g, h, comp)
    raise ValueError("reference hom handles forests, unicyclic components "
                     f"and components of at most {NAIVE_MAX_VERTICES} vertices")


def hom(g, h) -> int:
    """Number of homomorphisms from g to h."""
    if h[0] == 0:
        return 1 if g[0] == 0 else 0
    h_nb = _neighbours(h)
    g_nb = _plain_neighbours(g)
    total = 1
    for comp in components(g):
        total *= _hom_component(g, h, h_nb, g_nb, comp)
        if total == 0:
            return 0
    return total


def _delete(h, vertices=(), edges=()):
    """h without the given vertices (relabelled in order) and non-loop edges."""
    n, loops, h_edges = h
    gone = set(vertices)
    keep = [v for v in range(n) if v not in gone]
    pos = {v: i for i, v in enumerate(keep)}
    drop = set(edges)
    return graph(
        len(keep),
        (pos[v] for v in loops if v in pos),
        ((pos[u], pos[v]) for u, v in h_edges if u in pos and v in pos and (u, v) not in drop),
    )


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def vsurj(g, h) -> int:
    """Homomorphisms hitting every target vertex: inclusion-exclusion over
    the set X of vertices missed."""
    return sum((-1) ** len(x) * hom(g, _delete(h, vertices=x)) for x in _subsets(range(h[0])))


def vesurj(g, h) -> int:
    """Homomorphisms hitting every target vertex and non-loop edge:
    inclusion-exclusion over missed vertices X and missed edges Y.  When X
    has an incident edge, the terms with and without that edge in Y cancel,
    so X ranges over the vertices without non-loop edges."""
    touched = {v for e in h[2] for v in e}
    isolated = [v for v in range(h[0]) if v not in touched]
    return sum(
        (-1) ** (len(x) + len(y)) * hom(g, _delete(h, vertices=x, edges=y))
        for x in _subsets(isolated)
        for y in _subsets(sorted(h[2]))
    )


def aut(g) -> int:
    """Vertex bijections preserving loops, edges and non-edges."""
    n, loops, edges = g
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = True
    image = []
    used = [False] * n

    def extend(v):
        if v == n:
            return 1
        total = 0
        for c in range(n):
            if used[c] or (v in loops) != (c in loops):
                continue
            if any(adj[u][v] != adj[image[u]][c] for u in range(v)):
                continue
            used[c] = True
            image.append(c)
            total += extend(v + 1)
            image.pop()
            used[c] = False
        return total

    return extend(0)


def isomorphic(g, h) -> bool:
    if g[0] != h[0] or len(g[1]) != len(h[1]) or len(g[2]) != len(h[2]):
        return False
    return any(relabel(g, p) == h for p in itertools.permutations(range(g[0])))


def encoding_bits(g, order) -> list[int]:
    """The key's bit string for g listed in the given vertex order."""
    n, loops, edges = g
    bits = [1 if order[i] in loops else 0 for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = order[i], order[j]
            bits.append(1 if (min(a, b), max(a, b)) in edges else 0)
    return bits


def is_least_encoding(g) -> bool:
    """True when no vertex order encodes g below the identity order.

    The n loop bits come first, and the least loop-bit string over all
    orders is all zeros then all ones; the identity must have it.  Orders
    that keep those loop bits are built one position at a time.  Row 0
    comes next in the string and its bit j is fixed once positions 0 and j
    are, so a larger bit there prunes the branch and a smaller one proves
    a smaller encoding.  Complete orders compare the remaining rows.
    """
    n, loops, edges = g
    ident = encoding_bits(g, list(range(n)))
    if ident[:n] != sorted(ident[:n]):
        return False
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    loop = [1 if v in loops else 0 for v in range(n)]
    order = []
    used = [False] * n

    def rest_smaller():
        k = n + n - 1
        for i in range(1, n):
            for j in range(i + 1, n):
                bit = adj[order[i]][order[j]]
                if bit != ident[k]:
                    return bit < ident[k]
                k += 1
        return False

    def smaller_from(pos):
        if pos == n:
            return rest_smaller()
        for v in range(n):
            if used[v] or loop[v] != ident[pos]:
                continue
            if pos > 0:
                bit = adj[order[0]][v]
                want = ident[n + pos - 1]
                if bit < want:
                    return True
                if bit > want:
                    continue
            used[v] = True
            order.append(v)
            found = smaller_from(pos + 1)
            order.pop()
            used[v] = False
            if found:
                return True
        return False

    return not smaller_from(0)


def pack_key(g) -> str:
    """Hex of the packed key homcount prints for a graph in least encoding:
    one byte holding n, then the bit string padded with zeros to whole bytes."""
    n = g[0]
    bits = encoding_bits(g, list(range(n)))
    m = len(bits)
    nbytes = (m + 7) // 8
    value = 0
    for b in bits:
        value = (value << 1) | b
    return (bytes([n]) + (value << (nbytes * 8 - m)).to_bytes(nbytes, "big")).hex()


def classes_with_loops(n: int) -> int:
    """Isomorphism classes of graphs with loops on n vertices (OEIS A000666),
    by Burnside's lemma: average over permutations of 2 to the number of
    orbits on vertices (loop bits) plus orbits on unordered pairs."""
    total = 0
    for perm in itertools.permutations(range(n)):
        orbits = _orbits(range(n), lambda v: perm[v])
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pair_orbits = _orbits(pairs, lambda e: tuple(sorted((perm[e[0]], perm[e[1]]))))
        total += 2 ** (orbits + pair_orbits)
    return total // factorial(n)


def _orbits(items, step) -> int:
    seen = set()
    count = 0
    for x in items:
        if x in seen:
            continue
        count += 1
        while x not in seen:
            seen.add(x)
            x = step(x)
    return count
