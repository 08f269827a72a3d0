"""Counting and canonicalization kernels.

The hot loops of the package, in pure Python.  count_maps takes Graph
objects and places one source vertex at a time, component by component, so
each vertex after the first of its component has a placed neighbour.  A
component is placed in breadth-first order, or in depth-first preorder when
that keeps strictly fewer vertices on the frontier at its widest (on the
complete binary tree with 63 vertices, BFS order keeps up to 16 and DFS
preorder up to 5).  The candidate images of a vertex form one bitmask: the
AND of the target neighbourhoods of its placed neighbours' images, so no
partial map ever breaks an edge.  Counts are plain integers with no
overflow concerns.

count_maps is a forward dynamic program over that order (after
Díaz, Serna and Thilikos, TCS 2002).  After each position, a state is the
images of the frontier, the placed vertices that still have an unplaced
neighbour, mapped to the number of partial maps with those images; the
surjective modes add the mask of target vertices covered so far, and
vesurj the mask of target non-loop edges covered so far, so they count
surjective maps directly, not as signed sums of hom counts.  A state that
can no longer cover what is left of the target is dropped, and a source
with fewer components than the target has no surjective map at all: each
source component lands inside one target component, as counted by
graphs._components.  Nor has a source with as many vertices as the
target but more edges or more loops: a vertex-surjective map between
equal vertex counts is a bijection, which sends edges to distinct edges
and loops to distinct loops, so count_maps answers such pairs in O(1).
_plan keeps _bfs_order over masks: fed from that list walk, a plan of a
2-8-vertex source took 21 µs instead of 16.  The work is bounded by
state_bound, which the CLI budget charges.  hom and the surjective modes
run separate loops, so the hom loop keys a state by the frontier images
alone and tests no mode per candidate.  The per-source
schedule fixes, for each step, how a state's frontier shrinks (nothing to
do when every entry stays, else one itemgetter call) and holds the last
step apart.  The surjective loop reads its coverage thresholds once per
step: a state one vertex short of the vertex threshold draws its images
from the uncovered vertices alone, so no candidate is tested for it.

min_encoding computes the canonical key's encoding by a row-by-row search
over an ordered partition of the unplaced vertices, refined by adjacency
to each placed vertex (after McKay and Piperno): only the candidates whose
row is least are expanded, one vertex of each set of twins is tried, and a
branch whose rows exceed the best order's is dropped.  It also counts the
least orders, which form one coset of Aut(h), so their number is the
automorphism count: each least leaf counts with the product of the twin
sets skipped on its path.
"""

from functools import lru_cache
from operator import itemgetter

from .graphs import _components, adjacency_masks, loops_mask

MODE_HOM = 0
MODE_VSURJ = 1
MODE_VESURJ = 2

# Sources and targets whose count_maps tables are kept, in each cache.
KERNEL_CACHE_SIZE = 1 << 12


def backend_name() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def _bfs_order(adj, start):
    """start's component in breadth-first order, and its vertex mask."""
    order = [start]
    seen = 1 << start
    for v in order:
        fresh = adj[v] & ~seen
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            order.append(low.bit_length() - 1)
            fresh ^= low
    return order, seen


def _dfs_order(adj, start):
    """start's component in depth-first preorder, least neighbour first."""
    order = []
    seen = 0
    stack = [start]
    while stack:
        v = stack.pop()
        if (seen >> v) & 1:
            continue
        seen |= 1 << v
        order.append(v)
        fresh = adj[v] & ~seen
        while fresh:
            top = fresh.bit_length() - 1
            stack.append(top)
            fresh ^= 1 << top
    return order


def _width(adj, order):
    """Largest frontier along order: placed vertices with an unplaced
    neighbour, that is, the neighbours of the vertices still to place that
    are not among them themselves."""
    later = near = width = 0
    for v in reversed(order):
        later |= 1 << v
        near |= adj[v]
        size = (near & ~later).bit_count()
        if size > width:
            width = size
    return width


def _plan(g):
    """Search plan for g: its vertices component by component, each in BFS
    order or, when its largest frontier is strictly smaller, DFS preorder,
    so each vertex after the first of its component has a placed neighbour
    to prune against; and for each position the earlier positions adjacent
    to it; and its number of components."""
    adj = adjacency_masks(g)
    order = []
    seen = parts = 0
    for start in range(g.n):
        if (seen >> start) & 1:
            continue
        comp, mask = _bfs_order(adj, start)
        seen |= mask
        parts += 1
        width = _width(adj, comp)
        # No order keeps fewer vertices on its frontier than the least degree
        # (just before the last vertex is placed, all its neighbours are
        # there), so DFS is tried only when BFS order does worse.  Width 1
        # is that bound in any component with an edge.
        if width > 1 and width > min(adj[v].bit_count() for v in comp):
            dfs = _dfs_order(adj, start)
            if _width(adj, dfs) < width:
                comp = dfs
        order += comp
    position = [0] * g.n
    for i, v in enumerate(order):
        position[v] = i
    prev = [[] for _ in order]
    for u, v in g.edges:
        i, j = position[u], position[v]
        prev[max(i, j)].append(min(i, j))
    for ups in prev:
        ups.sort()
    return order, prev, parts


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _schedule(g):
    """count_maps' steps for source g along _plan's order: (steps, last,
    widths, parts).  steps holds (looped, slots, pick, push, left, edges_left) for
    every position but the last.  slots index the frontier before the step
    at the placed neighbours.  pick takes the entries that stay out of that
    frontier: None when all of them stay, else an itemgetter that returns a
    tuple.  push says whether the new vertex joins the frontier (at its
    end); left counts the vertices and edges_left the non-loop edges still
    to place after the step.  last is (looped, slots) for the last
    position, None for the empty graph; widths holds the frontier's size
    after each position, and parts counts g's components."""
    order, prev, parts = _plan(g)
    last = list(range(g.n))
    for w, ups in enumerate(prev):
        for u in ups:
            last[u] = w
    frontier = []
    steps = []
    widths = []
    edges_left = len(g.edges)
    for w, v in enumerate(order):
        edges_left -= len(prev[w])
        slots = tuple([frontier.index(u) for u in prev[w]])
        kept = tuple([i for i, u in enumerate(frontier) if last[u] > w])
        if len(kept) == len(frontier):
            pick = None
        elif len(kept) > 1:
            pick = itemgetter(*kept)
        else:
            # itemgetter of one index returns the entry itself, not a tuple.
            pick = itemgetter(slice(kept[0], kept[0] + 1) if kept else slice(0))
        push = last[w] > w
        frontier = [frontier[i] for i in kept] + ([w] if push else [])
        steps.append((v in g.loops, slots, pick, push, g.n - 1 - w, edges_left))
        widths.append(len(frontier))
    final = steps.pop()[:2] if steps else None
    return tuple(steps), final, tuple(widths), parts


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _tables(h):
    """count_maps' tables for target h: nbr[c], where a neighbour of a
    vertex mapped to c may go; pairs[c][d], the bit of non-loop edge cd
    for each d in nbr[c] (0 for c's own loop); the loop mask; the number of
    components.  pairs holds one dict per vertex and one entry per loop
    and edge end, so its size is O(n + |E|), not n^2."""
    h_loops = loops_mask(h)
    adj = adjacency_masks(h)
    nbr = tuple(m | (1 << c) if (h_loops >> c) & 1 else m for c, m in enumerate(adj))
    pairs = tuple({c: 0} if (h_loops >> c) & 1 else {} for c in range(h.n))
    for i, (c, d) in enumerate(sorted(h.edges)):
        pairs[c][d] = pairs[d][c] = 1 << i
    return nbr, pairs, h_loops, len(_components(h))


def state_bound(g, h, mode):
    """Bound on the states count_maps(g, h, mode) builds, summed over its
    steps, from g's schedule alone: after position w at most
    min(n^(w+1), n^f * c) for n = |V(h)| and f the frontier's size, where
    c = 1 for hom, 2^n for vsurj and 2^(n + |E(h)|) for vesurj.  That is
    n^f * min(n^(w + 1 - f), c), and n^bits > c for bits = c.bit_length()
    and n >= 2 (n^k = n for n <= 1, k >= 1), so no larger power is built."""
    n = h.n
    c = (1, 1 << n, 1 << (n + len(h.edges)))[mode]
    bits = c.bit_length()
    return sum(n ** f * min(n ** min(w + 1 - f, bits), c) for w, f in enumerate(_schedule(g)[2]))


def count_maps(g, h, mode):
    """Count homomorphisms from g to h: all of them, the vertex-surjective
    ones, or the vertex-surjective ones covering every non-loop edge of h,
    as mode selects.  Any sizes, empty graphs included."""
    if mode == MODE_HOM:
        return _count_homs(g, h)
    if h.n > g.n or (mode == MODE_VESURJ and len(h.edges) > len(g.edges)):
        return 0
    if h.n == g.n and (len(g.edges) > len(h.edges) or len(g.loops) > len(h.loops)):
        # A vertex-surjective map between equal vertex counts is a bijection,
        # which sends edges to distinct edges and loops to distinct loops.
        return 0
    return _count_surjective(g, h, mode == MODE_VESURJ)


def _count_homs(g, h):
    steps, last, _, _ = _schedule(g)
    if last is None:
        return 1
    nbr, _, h_loops, _ = _tables(h)
    full = (1 << h.n) - 1
    # frontier images -> partial maps
    states = {(): 1}
    for looped, slots, pick, push, _, _ in steps:
        base = h_loops if looped else full
        nxt = {}
        get = nxt.get
        for imgs, mult in states.items():
            m = base
            for s in slots:
                m &= nbr[imgs[s]]
            if not m:
                continue
            stem = imgs if pick is None else pick(imgs)
            if not push:
                nxt[stem] = get(stem, 0) + mult * m.bit_count()
                continue
            while m:
                low = m & -m
                m ^= low
                key = stem + (low.bit_length() - 1,)
                nxt[key] = get(key, 0) + mult
        states = nxt
    looped, slots = last
    base = h_loops if looped else full
    total = 0
    for imgs, mult in states.items():
        m = base
        for s in slots:
            m &= nbr[imgs[s]]
        total += mult * m.bit_count()
    return total


def _count_surjective(g, h, edges_too):
    steps, last, _, parts = _schedule(g)
    if last is None:
        return 1
    nbr, pairs, h_loops, h_parts = _tables(h)
    if parts < h_parts:
        # Each component of g lands inside one component of h.
        return 0
    n = h.n
    h_edges = len(h.edges)
    full = (1 << n) - 1
    # (frontier images, covered vertices, covered edges) -> partial maps
    states = {((), 0, 0): 1}
    for looped, slots, pick, push, left, edges_left in steps:
        base = h_loops if looped else full
        # What must be covered after this step for the rest to cover h.
        # Every state covers at least need - 1 vertices, the last step's
        # need, so in a state that covers no more the image must be new.
        need = n - left
        need_edges = h_edges - edges_left
        nxt = {}
        get = nxt.get
        for (imgs, cov, ecov), mult in states.items():
            m = base if cov.bit_count() >= need else base & ~cov
            for s in slots:
                m &= nbr[imgs[s]]
            if not m:
                continue
            stem = imgs if pick is None else pick(imgs)
            while m:
                low = m & -m
                m ^= low
                cv = cov | low
                c = low.bit_length() - 1
                ev = ecov
                if edges_too:
                    row = pairs[c]
                    for s in slots:
                        ev |= row[imgs[s]]
                    if ev.bit_count() < need_edges:
                        continue
                key = (stem + (c,) if push else stem, cv, ev)
                nxt[key] = get(key, 0) + mult
        states = nxt
    looped, slots = last
    base = h_loops if looped else full
    every_edge = (1 << h_edges) - 1
    total = 0
    for (imgs, cov, ecov), mult in states.items():
        m = base
        for s in slots:
            m &= nbr[imgs[s]]
        if cov != full:
            # Pruning leaves one target vertex uncovered: the last image.
            m &= full ^ cov
        if not edges_too:
            total += mult * m.bit_count()
            continue
        while m:
            low = m & -m
            m ^= low
            row = pairs[low.bit_length() - 1]
            ev = ecov
            for s in slots:
                ev |= row[imgs[s]]
            if ev == every_edge:
                total += mult
    return total


def min_encoding(n, loops, adj):
    """Lexicographically smallest encoding over all vertex orders, and the
    number of automorphisms, of the graph on n vertices with loop mask loops
    (bit v set iff v is looped) and adjacency masks adj.

    The loop bits are the most significant, so every least order lists the
    loopless vertices first.  The search fixes one position at a time and
    keeps the unplaced vertices in an ordered partition of cells (bit masks)
    that starts as [loopless | looped].  Position i takes a vertex v from
    the first cell; row i of the encoding is least when each cell lists v's
    non-neighbours before its neighbours, so the row depends on v alone, and
    only the candidates with the least row are kept.  Placing v splits every
    cell into non-neighbours, then neighbours.  Of a set of twins (same
    neighbourhood apart from each other) only one is tried: swapping two
    twins is an automorphism fixing the placed prefix and every cell, so it
    maps one subtree onto the other.  A branch whose rows so far exceed
    those of the best order found is dropped.

    The least orders form one coset of Aut, so their number is the
    automorphism count.  Every least order is a leaf of the search, and
    each leaf stands for as many orders as the product of the sizes of the
    twin sets its path tried one vertex of.
    """
    if n == 0:
        return 0, 1
    loopless = ((1 << n) - 1) & ~loops
    # Bits of the encoding from row i on; rows are n-1-i bits long.
    rest = [(n - i) * (n - 1 - i) // 2 for i in range(n)]
    best = None
    autos = 0
    # Depth first on an explicit stack: (position, cells, rows so far,
    # least orders each leaf below stands for).
    stack = [(0, [c for c in (loopless, loops) if c], 0, 1)]
    while stack:
        i, cells, prefix, weight = stack.pop()
        if best is not None and prefix > best >> rest[i]:
            continue
        if i == n - 1:
            if prefix == best:
                autos += weight
            else:
                best, autos = prefix, weight
            continue
        head, tail = cells[0], cells[1:]
        low = None
        # Each tried vertex -> the size of its set of twins in the cell.
        twins = {}
        keep = []
        m = head
        while m:
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            a = adj[v]
            for u in twins:
                if not (adj[u] ^ a) & ~(bit | 1 << u):
                    twins[u] += 1
                    break
            else:
                twins[v] = 1
                row = 0
                for c in [head ^ bit] + tail:
                    b = (c & a).bit_count()
                    row = (row << c.bit_count()) | ((1 << b) - 1)
                if low is None or row < low:
                    low = row
                    keep = [v]
                elif row == low:
                    keep.append(v)
        prefix = (prefix << (n - 1 - i)) | low
        # The children's own test, made once before their cells are split.
        if best is not None and prefix > best >> rest[i + 1]:
            continue
        for v in reversed(keep):
            a = adj[v]
            split = []
            for c in [head ^ (1 << v)] + tail:
                if c & ~a:
                    split.append(c & ~a)
                if c & a:
                    split.append(c & a)
            stack.append((i + 1, split, prefix, weight * twins[v]))
    return (((1 << loops.bit_count()) - 1) << (n * (n - 1) // 2)) | best, autos
