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

In the surjective modes a source with two or more components is counted
from its components and gets no schedule of its own.  _split finds each
component with _bfs_order and keys it as (vertex count, loops, edges) on
its vertices renumbered in increasing order, so _plan orders it as it
does inside the source; edges lists each edge's endpoints, so a key
grows with the component's edges.  _component builds a key's Graph and
schedule once, however many sources share it.  count_maps folds the
components' coverage profiles.  A component's profile maps (covered
target vertices | covered non-loop edges << n) to its number of maps:
the surjective loop's states after the component, started from the empty
state.  The loop drops only what the other components' vertices and
edges could not complete, counted up to n - 1 vertices and |E(h)| edges,
past which nothing is dropped: most sources share the unpruned profile,
and a source whose other components are small prunes about as the loop
over the whole source would (C10+K1 into K5 under vesurj took 0.13 s
unpruned, 2 ms pruned, on a 2-vCPU Xeon).  Into a target with as many
vertices, a k-vertex component's others hold n - k vertices, under the
cap, so the loop needs its k images distinct: its profile keeps only
injective maps, as a bijection onto h must be on each component.
Profiles are cached per (component, target, mode, those two counts); a
single vertex needs no loop and no cache entry, since its profile is its
candidate mask.  The fold ORs one profile entry per component into a map
from coverage to maps, drops the entries that fail the loop's need and
need_edges thresholds at each component boundary, and reads the entry
that covers all of h.  state_bound bounds the states built: a profile's
states after a position of its component fall under that position's
term, since the frontier is the same and no other component's coverage
is in them, and a folded entry is one coverage at a boundary, where the
frontier is empty, so the entries there fall under the boundary's term
min(n^(w+1), c).  It does not bound the work of pairing them: each
boundary ORs every folded entry with every entry of the next profile.
C8+C8 into K15 under vsurj has a bound of 6.04e7, yet takes 11.4 s on a
2-vCPU Xeon: 5.7 s builds C8's 12,870-entry profile, and the rest pairs
165M entries.  ROADMAP item 5's tree joins stay out of the surjective
modes: frontiers are already empty at component boundaries, where the
fold is that join, and a join inside a component would OR-convolve
coverage masks.  state_bound reads such a source's frontier sizes off
its components' widths, laid end to end, so the CLI's budget check plans
no union either.

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

from .graphs import Graph, _components, adjacency_masks, loops_mask

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
    to it."""
    adj = adjacency_masks(g)
    order = []
    seen = 0
    for start in range(g.n):
        if (seen >> start) & 1:
            continue
        comp, mask = _bfs_order(adj, start)
        seen |= mask
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
    return order, prev


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _schedule(g):
    """count_maps' steps for source g along _plan's order: (steps, last,
    widths).  steps holds (looped, slots, pick, push, left, edges_left) for
    every position but the last.  slots index the frontier before the step
    at the placed neighbours.  pick takes the entries that stay out of that
    frontier: None when all of them stay, else an itemgetter that returns a
    tuple.  push says whether the new vertex joins the frontier (at its
    end); left counts the vertices and edges_left the non-loop edges still
    to place after the step.  last is (looped, slots) for the last
    position, None for the empty graph; and widths holds the frontier's
    size after each position."""
    order, prev = _plan(g)
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
    return tuple(steps), final, tuple(widths)


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
    and n >= 2 (n^k = n for n <= 1, k >= 1), so no larger power is built.
    In the surjective modes a source with two or more components is read
    from its components' schedules, which count_maps plans anyway: _plan
    orders g component by component, as each alone, and the frontier is
    empty between them, so their widths laid end to end are g's."""
    n = h.n
    c = (1, 1 << n, 1 << (n + len(h.edges)))[mode]
    bits = c.bit_length()
    if mode == MODE_HOM:
        widths = _schedule(g)[2]
    else:
        schedule, parts = _split(g)
        widths = schedule[2] if parts is None else [
            f for part in parts for f in _component(part)[1]]
    return sum(n ** f * min(n ** min(w + 1 - f, bits), c) for w, f in enumerate(widths))


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
    edges_too = mode == MODE_VESURJ
    schedule, parts = _split(g)
    if parts is None:
        return _count_surjective(schedule, h, edges_too)
    return _fold(g, parts, h, edges_too)


def _count_homs(g, h):
    steps, last, _ = _schedule(g)
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


def _surjective_states(steps, h, tables, edges_too, others, other_edges):
    """The surjective loop's states after steps, from the empty map:
    (frontier images, covered vertices, covered edges) -> partial maps.
    A state that can no longer cover h, with the help of others more
    vertices and other_edges more non-loop edges, is dropped."""
    nbr, pairs, h_loops, _ = tables
    n = h.n
    h_edges = len(h.edges)
    full = (1 << n) - 1
    states = {((), 0, 0): 1}
    for looped, slots, pick, push, left, edges_left in steps:
        base = h_loops if looped else full
        # What must be covered after this step for the rest to cover h.
        # Every state covers at least need - 1 vertices, the last step's
        # need, so in a state that covers no more the image must be new.
        need = n - left - others
        need_edges = h_edges - edges_left - other_edges
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
    return states


def _count_surjective(schedule, h, edges_too):
    """Surjective count from a connected or empty source, with schedule
    _schedule(g), into h."""
    steps, last, _ = schedule
    if last is None:
        return 1
    tables = nbr, pairs, h_loops, h_parts = _tables(h)
    if h_parts > 1:
        # The connected source lands inside one component of h.
        return 0
    states = _surjective_states(steps, h, tables, edges_too, 0, 0)
    full = (1 << h.n) - 1
    looped, slots = last
    base = h_loops if looped else full
    every_edge = (1 << len(h.edges)) - 1
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


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _split(g):
    """(_schedule(g), None) when g has fewer than two components, else
    (None, its components by least vertex), each as a key (vertex count,
    loops, edges) on its vertices renumbered in increasing order, so _plan
    orders it as it orders it inside g: bit v of loops is v's loop, and
    edges is flat (u0, v0, u1, v1, ...), u < v, ordered by v, then u."""
    adj = adjacency_masks(g)
    rest = (1 << g.n) - 1
    masks = []
    while rest:
        mask = _bfs_order(adj, (rest & -rest).bit_length() - 1)[1]
        masks.append(mask)
        rest ^= mask
    if len(masks) < 2:
        return _schedule(g), None
    g_loops = loops_mask(g)
    parts = []
    for mask in masks:
        k = loops = 0
        edges = []
        m = mask
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if (g_loops >> v) & 1:
                loops |= 1 << k
            below = adj[v] & (low - 1)
            while below:
                u = below & -below
                below ^= u
                edges += ((mask & (u - 1)).bit_count(), k)
            k += 1
        parts.append((k, loops, tuple(edges)))
    return None, tuple(parts)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _component(part):
    """(steps, widths) of the component that the _split key part describes:
    every step, the last one closing the frontier, since no later vertex is
    adjacent, and the frontier's size after each position."""
    k, loops, edges = part
    steps, last, widths = _schedule(Graph(
        k, [v for v in range(k) if (loops >> v) & 1], zip(edges[::2], edges[1::2])))
    return steps + (last + (itemgetter(slice(0)), False, 0, 0),), widths


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _profile(part, h, edges_too, others, other_edges):
    """Coverage profile of the component part (a _split key) into h: flat
    (covered vertices | covered non-loop edges << n, maps) pairs over its
    maps, from the surjective loop, which drops only the maps whose coverage
    others more vertices and other_edges more edges cannot complete."""
    n = h.n
    states = _surjective_states(_component(part)[0], h, _tables(h), edges_too, others, other_edges)
    return tuple([x for (_, cov, ecov), maps in states.items() for x in (cov | ecov << n, maps)])


def _fold(g, parts, h, edges_too):
    """Surjective count from g, whose components are parts (_split keys),
    into h with at most as many vertices: the ORs of one profile entry per
    component, weighted by the product of their maps, pruned at each
    boundary as the loop prunes, and summed where they cover all of h."""
    _, _, h_loops, h_parts = _tables(h)
    if len(parts) < h_parts or (g.loops and not h_loops):
        # Each component lands inside one component of h, a loop on a loop.
        return 0
    n = h.n
    full = (1 << n) - 1
    h_edges = len(h.edges) if edges_too else 0
    every = full | ((1 << h_edges) - 1) << n
    rest = g.n
    rest_edges = len(g.edges)
    # covered vertices | covered edges << n -> maps of the components so far
    acc = {0: 1}
    for part in parts:
        k, loops, edges = part
        if k > 1:
            # The other components' vertices and edges bound what this one
            # may leave uncovered.  Past n - 1 vertices, or all of h's
            # edges, that bound prunes nothing, so it is counted no further
            # and larger sources share the profile.
            profile = _profile(part, h, edges_too, min(g.n - k, n - 1),
                               min(len(g.edges) - len(edges) // 2, h_edges))
            pairs = list(zip(profile[::2], profile[1::2]))
        else:
            # A single vertex covers one candidate image and no edge.
            base = h_loops if loops else full
            pairs = [(1 << c, 1) for c in range(n) if (base >> c) & 1]
        rest -= k
        if not rest:
            return sum([x * y for a, x in acc.items() for b, y in pairs if a | b == every])
        rest_edges -= len(edges) // 2
        need = n - rest
        need_edges = h_edges - rest_edges
        nxt = {}
        get = nxt.get
        for a, x in acc.items():
            for b, y in pairs:
                c = a | b
                if (c & full).bit_count() >= need and (c >> n).bit_count() >= need_edges:
                    nxt[c] = get(c, 0) + x * y
        if not nxt:
            return 0
        acc = nxt


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
