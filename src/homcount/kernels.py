"""Counting and canonicalization kernels.

The hot loops of the package, in pure Python.  The counting kernels take
Graph objects and place one source vertex at a time in breadth-first
order.  The candidate images of a vertex form one bitmask: the AND of the
target neighbourhoods of its placed neighbours' images, so the search
never visits a map that breaks an edge (count_autos also ANDs in the
non-neighbourhoods of its placed non-neighbours' images).  Counts are
plain integers with no overflow concerns.

min_encoding computes the canonical key's encoding by a row-by-row search
over an ordered partition of the unplaced vertices, refined by adjacency
to each placed vertex (after McKay and Piperno): only the candidates whose
row is least are expanded, one vertex of each set of twins is tried, and a
branch whose rows exceed the best order's is dropped.
"""

from .graphs import adjacency_masks, loops_mask

MODE_HOM = 0
MODE_VSURJ = 1
MODE_VESURJ = 2


def backend_name() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def _plan(g):
    """Search plan for g: its vertices in BFS order per component, so each
    one after the first of its component has a placed neighbour to prune
    against, and for each position the earlier positions adjacent to it."""
    adj = adjacency_masks(g)
    order = []
    seen = 0
    for start in range(g.n):
        if (seen >> start) & 1:
            continue
        seen |= 1 << start
        order.append(start)
        i = len(order) - 1
        while i < len(order):
            fresh = adj[order[i]] & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                order.append(low.bit_length() - 1)
                fresh ^= low
            i += 1
    prev = [[j for j in range(i) if (adj[v] >> order[j]) & 1] for i, v in enumerate(order)]
    return order, prev


def count_maps(g, h, mode):
    """Count homomorphisms from g to h: all of them, the vertex-surjective
    ones, or the vertex-surjective ones covering every non-loop edge of h,
    as mode selects.  Surjectivity is checked on completed maps only.
    Callers guarantee g.n >= 1 and h.n >= 1.
    """
    order, prev = _plan(g)
    h_adj = adjacency_masks(h)
    h_loops = loops_mask(h)
    full = (1 << h.n) - 1
    # nbr[c]: where a neighbour of a vertex mapped to c may go.
    nbr = [m | (1 << c) if (h_loops >> c) & 1 else m for c, m in enumerate(h_adj)]
    base = [h_loops if v in g.loops else full for v in order]
    last = g.n - 1
    if mode == MODE_HOM and last == 0:
        return base[0].bit_count()
    img = [0] * g.n
    rest = [0] * g.n
    rest[0] = base[0]
    count = 0
    v = 0
    while v >= 0:
        m = rest[v]
        if not m:
            v -= 1
            continue
        low = m & -m
        rest[v] = m ^ low
        img[v] = low.bit_length() - 1
        if v < last:
            w = v + 1
            m = base[w]
            for u in prev[w]:
                m &= nbr[img[u]]
            if w < last or mode != MODE_HOM:
                v = w
                rest[v] = m
            else:
                count += m.bit_count()
            continue
        seen = 0
        for c in img:
            seen |= 1 << c
        if seen != full:
            continue
        if mode == MODE_VESURJ:
            covered = [0] * h.n
            for w, ups in enumerate(prev):
                c = img[w]
                for u in ups:
                    d = img[u]
                    if d != c:
                        covered[c] |= 1 << d
                        covered[d] |= 1 << c
            if covered != h_adj:
                continue
        count += 1
    return count


def count_autos(h):
    """Count permutations of h preserving loops, edges, and non-edges
    exactly.  Callers guarantee h.n >= 1."""
    order, prev = _plan(h)
    adj = adjacency_masks(h)
    h_loops = loops_mask(h)
    full = (1 << h.n) - 1
    base = [h_loops if v in h.loops else full & ~h_loops for v in order]
    far = [[j for j in range(i) if j not in ups] for i, ups in enumerate(prev)]
    last = h.n - 1
    img = [0] * h.n
    rest = [0] * h.n
    rest[0] = base[0]
    count = 0
    v = 0
    while v >= 0:
        m = rest[v]
        if not m:
            v -= 1
            continue
        low = m & -m
        rest[v] = m ^ low
        img[v] = low.bit_length() - 1
        if v == last:
            count += 1
            continue
        v += 1
        m = base[v]
        for u in prev[v]:
            m &= adj[img[u]]
        for u in far[v]:
            c = img[u]
            m &= ~(adj[c] | 1 << c)
        rest[v] = m
    return count


def encode_with_perm(n, loop_flags, adj, perm):
    """Bit encoding of the relabeled graph: n loop bits, then upper-triangle
    adjacency bits in row-major pair order, most significant first."""
    enc = 0
    for i in range(n):
        enc = (enc << 1) | loop_flags[perm[i]]
    for i in range(n):
        ai = adj[perm[i]]
        for j in range(i + 1, n):
            enc = (enc << 1) | ((ai >> perm[j]) & 1)
    return enc


def min_encoding(n, loop_flags, adj):
    """Lexicographically smallest encoding over all vertex orders.

    The loop bits are the most significant, so every least order lists the
    loopless vertices first.  The search fixes one position at a time and
    keeps the unplaced vertices in an ordered partition of cells (bit masks)
    that starts as [loopless | looped].  Position i takes a vertex v from
    the first cell; row i of the encoding is least when each cell lists v's
    non-neighbours before its neighbours, so the row depends on v alone, and
    only the candidates with the least row are kept.  Placing v splits every
    cell into non-neighbours, then neighbours.  Of a set of twins (same
    neighbourhood apart from each other) only one is tried: swapping two
    twins is an automorphism fixing the placed prefix and every cell.  A
    branch whose rows so far exceed those of the best order found is
    dropped.
    """
    if n == 0:
        return 0
    loopless = 0
    for v in range(n):
        if not loop_flags[v]:
            loopless |= 1 << v
    looped = ((1 << n) - 1) & ~loopless
    # Bits of the encoding after row i; rows are n-1-i bits long.
    after = [(n - 1 - i) * (n - 2 - i) // 2 for i in range(n)]
    best = None

    def place(i, cells, prefix):
        nonlocal best
        if i == n - 1:
            if best is None or prefix < best:
                best = prefix
            return
        head, tail = cells[0], cells[1:]
        low = None
        tried = []
        keep = []
        m = head
        while m:
            bit = m & -m
            m ^= bit
            v = bit.bit_length() - 1
            a = adj[v]
            if any(not (adj[u] ^ a) & ~(bit | 1 << u) for u in tried):
                continue
            tried.append(v)
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
        for v in keep:
            if best is not None and prefix > best >> after[i]:
                return
            a = adj[v]
            split = []
            for c in [head ^ (1 << v)] + tail:
                if c & ~a:
                    split.append(c & ~a)
                if c & a:
                    split.append(c & a)
            place(i + 1, split, prefix)

    place(0, [c for c in (loopless, looped) if c], 0)
    return (((1 << looped.bit_count()) - 1) << (n * (n - 1) // 2)) | best
