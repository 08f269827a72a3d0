"""Counting and canonicalization kernels.

The hot loops of the package, in pure Python.  Inputs are primitive
sequences and bitmasks, counts are plain integers with no overflow
concerns.
"""

from itertools import permutations

MODE_HOM = 0
MODE_VSURJ = 1
MODE_VESURJ = 2


def backend_name() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def count_maps(
    n_g,
    g_loop,
    g_prev_off,
    g_prev_flat,
    g_edge_u,
    g_edge_v,
    n_h,
    h_loops,
    h_adj,
    h_edge_id,
    n_h_edges,
    mode,
):
    """Count vertex maps from a prepared source graph into a prepared target.

    The source comes as an assignment order: g_loop[v] flags a loop on the
    v-th assigned vertex, g_prev_flat[g_prev_off[v]:g_prev_off[v+1]] lists
    its already-assigned neighbors.  The target is a loop bitmask plus one
    adjacency bitmask per vertex; h_edge_id maps position a*n_h+b to the
    index of non-loop edge {a, b}.  mode selects plain homomorphisms,
    vertex-surjective ones, or vertex-surjective ones covering every
    non-loop target edge.  Surjectivity is checked on completed maps only.
    Callers guarantee n_g >= 1 and n_h >= 1.
    """
    img = [0] * n_g
    choice = [-1] * n_g
    full_v = (1 << n_h) - 1
    full_e = (1 << n_h_edges) - 1
    n_g_edges = len(g_edge_u)
    count = 0
    v = 0
    while v >= 0:
        c = choice[v] + 1
        placed = False
        while c < n_h:
            ok = not g_loop[v] or (h_loops >> c) & 1
            if ok:
                for k in range(g_prev_off[v], g_prev_off[v + 1]):
                    d = img[g_prev_flat[k]]
                    if d == c:
                        if not (h_loops >> c) & 1:
                            ok = False
                            break
                    elif not (h_adj[c] >> d) & 1:
                        ok = False
                        break
            if ok:
                placed = True
                break
            c += 1
        if not placed:
            choice[v] = -1
            v -= 1
            continue
        choice[v] = c
        img[v] = c
        if v + 1 == n_g:
            if mode == MODE_HOM:
                count += 1
            else:
                vm = 0
                for x in img:
                    vm |= 1 << x
                if vm == full_v:
                    if mode == MODE_VSURJ:
                        count += 1
                    else:
                        em = 0
                        for k in range(n_g_edges):
                            a = img[g_edge_u[k]]
                            b = img[g_edge_v[k]]
                            if a != b:
                                em |= 1 << h_edge_id[a * n_h + b]
                        if em == full_e:
                            count += 1
        else:
            v += 1
    return count


def count_autos(n, loops, adj):
    """Count permutations preserving loops, edges, and non-edges exactly.

    Callers guarantee n >= 1.
    """
    img = [0] * n
    choice = [-1] * n
    used = 0
    count = 0
    v = 0
    while v >= 0:
        if choice[v] >= 0:
            used &= ~(1 << img[v])
        c = choice[v] + 1
        placed = False
        while c < n:
            if not (used >> c) & 1 and ((loops >> v) & 1) == ((loops >> c) & 1):
                ok = True
                av = adj[v]
                ac = adj[c]
                for u in range(v):
                    if ((av >> u) & 1) != ((ac >> img[u]) & 1):
                        ok = False
                        break
                if ok:
                    placed = True
                    break
            c += 1
        if not placed:
            choice[v] = -1
            v -= 1
            continue
        choice[v] = c
        img[v] = c
        used |= 1 << c
        if v + 1 == n:
            count += 1
        else:
            v += 1
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

    Orders placing a looped vertex before a loopless one can never win
    (the loop bits are the most significant), so only orders listing the
    loopless block first are searched.
    """
    if n == 0:
        return 0
    loopless = [v for v in range(n) if not loop_flags[v]]
    looped = [v for v in range(n) if loop_flags[v]]
    best = None
    for head in permutations(loopless):
        for tail in permutations(looped):
            enc = encode_with_perm(n, loop_flags, adj, head + tail)
            if best is None or enc < best:
                best = enc
    return best
