"""Canonical forms, isomorphism keys, and isomorphism-class enumeration.

The key of a graph is built from a bit string: one loop bit per vertex,
then the upper-triangle adjacency bits in row-major pair order.  The
canonical form is the lexicographically smallest bit string over all
vertex orderings; equal keys therefore mean isomorphic graphs, exactly.
Packed keys are one byte holding n followed by the bit string.

Keys sort by total size |V| + |E| first, then bytewise.  That order makes
the subgraph-counting matrices triangular and is called matrix order
throughout; enumerate_graphs yields classes in matrix order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from . import kernels
from .errors import SizeLimitError
from .graphs import Graph, adjacency_masks

ENUMERATE_MAX_VERTICES = 6
# Entries kept by canonical_form's cache; each holds two small Graphs.
CANONICAL_CACHE_SIZE = 1 << 12


@dataclass(frozen=True, order=True)
class GraphKey:
    """Canonical identifier of an isomorphism class, totally ordered."""

    size: int
    data: bytes

    def hex(self) -> str:
        return self.data.hex()


def _pack(n: int, enc: int) -> bytes:
    if n > 255:
        raise SizeLimitError("canonical keys support at most 255 vertices")
    m = n + n * (n - 1) // 2
    nbytes = (m + 7) // 8
    return bytes([n]) + (enc << (nbytes * 8 - m)).to_bytes(nbytes, "big")


def _unpack(data: bytes) -> tuple[int, int]:
    n = data[0]
    m = n + n * (n - 1) // 2
    nbytes = (m + 7) // 8
    enc = int.from_bytes(data[1:], "big") >> (nbytes * 8 - m)
    return n, enc


def _masks(n: int, enc: int) -> tuple[int, list[int]]:
    """Loop mask and adjacency masks of the graph an encoding describes."""
    k = n + n * (n - 1) // 2
    loops = 0
    for v in range(n):
        k -= 1
        loops |= ((enc >> k) & 1) << v
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            k -= 1
            if (enc >> k) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return loops, adj


def _decode(n: int, enc: int) -> Graph:
    loops, adj = _masks(n, enc)
    return Graph(
        n,
        [v for v in range(n) if (loops >> v) & 1],
        [(i, j) for i in range(n) for j in range(i + 1, n) if (adj[i] >> j) & 1],
    )


def _key(n: int, enc: int) -> GraphKey:
    """Key of the class whose least encoding on n vertices is enc; the
    encoding holds one bit per loop and per edge."""
    return GraphKey(n + enc.bit_count(), _pack(n, enc))


def _form(n: int, enc: int) -> tuple[GraphKey, Graph]:
    return _key(n, enc), _decode(n, enc)


def _encoding(g: Graph) -> int:
    """Least encoding of g over all vertex orders, which its key packs."""
    loop_flags = [1 if v in g.loops else 0 for v in range(g.n)]
    return kernels.min_encoding(g.n, loop_flags, adjacency_masks(g))[0]


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def canonical_form(g: Graph) -> tuple[GraphKey, Graph]:
    """Key plus the canonically relabeled representative of g's class."""
    return _form(g.n, _encoding(g))


def canonical_key(g: Graph) -> GraphKey:
    return canonical_form(g)[0]


def graph_from_key(key: GraphKey) -> Graph:
    n, enc = _unpack(key.data)
    return _decode(n, enc)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or len(g.loops) != len(h.loops) or len(g.edges) != len(h.edges):
        return False
    return canonical_key(g) == canonical_key(h)


def _classes_on(n: int) -> list[tuple[GraphKey, Graph]]:
    """One canonical representative per isomorphism class on exactly n vertices.

    Every labeled graph is visited once: each unseen bit code spawns its
    whole relabeling orbit, whose minimum is the canonical encoding.
    """
    if n == 0:
        key = GraphKey(0, _pack(0, 0))
        return [(key, Graph(0))]
    m = n + n * (n - 1) // 2
    perms = list(permutations(range(n)))
    seen = bytearray(1 << m)
    out = []
    encode = kernels.encode_with_perm
    for code in range(1 << m):
        if seen[code]:
            continue
        g = _decode(n, code)
        loop_flags = [1 if v in g.loops else 0 for v in range(n)]
        adj = adjacency_masks(g)
        best = code
        for p in perms:
            e = encode(n, loop_flags, adj, p)
            seen[e] = 1
            if e < best:
                best = e
        out.append(_form(n, best))
    return out


@lru_cache(maxsize=None)
def enumerate_graphs(n_max: int) -> tuple[tuple[GraphKey, Graph], ...]:
    """All isomorphism classes with at most n_max vertices, in matrix order."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > ENUMERATE_MAX_VERTICES:
        raise SizeLimitError(
            f"enumeration is limited to {ENUMERATE_MAX_VERTICES} vertices"
        )
    classes = []
    for n in range(n_max + 1):
        classes.extend(_classes_on(n))
    classes.sort(key=lambda kr: kr[0])
    return tuple(classes)
