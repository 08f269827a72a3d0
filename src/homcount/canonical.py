"""Canonical forms, isomorphism keys, and isomorphism-class enumeration.

A graph's encoding is a bit string: one loop bit per vertex, then the
upper-triangle adjacency bits in row-major pair order.  The canonical form
is the lexicographically smallest bit string over all vertex orderings, so
equal keys mean isomorphic graphs, exactly.  A key is the tuple (size, n,
least encoding), with size |V| + |E|.  Its printed form, hex(), is n in one
byte followed by the bit string; only this module knows that format.

The least encoding is found by one search, kernels.min_encoding, which
also counts automorphisms; every key, representative and automorphism
count in the package comes from it.  The subgraph and partition walks
pack each labelled leaf's adjacency rows _STRIDE bits apart in one int and
key it through one bounded memo that they share, _leaf_class.

Keys sort by size, then n, then encoding: the bytewise order of their
printed forms within a size.  That order makes the subgraph-counting
matrices triangular and is called matrix order throughout;
enumerate_graphs yields classes in matrix order.  It grows the classes
on n vertices from those on n - 1, adding a last vertex in every way and
keying each result through the same search: 34,816 searches on 6
vertices for the 5,759 classes with at most 6.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import kernels
from .errors import SizeLimitError
from .graphs import Graph, adjacency_masks, loops_mask

ENUMERATE_MAX_VERTICES = 6
# Entries kept by canonical_form's cache; each holds two small Graphs.
CANONICAL_CACHE_SIZE = 1 << 12
# A labelled leaf's adjacency rows are packed _STRIDE bits apart in one
# int.  The subgraph walks refuse more than 20 vertices, and quotients
# have at most 8, so a row of either fits in _STRIDE bits.
_STRIDE = 20
_ROW = (1 << _STRIDE) - 1
# Labelled leaves whose least encoding and automorphism count are kept,
# shared by all walks (about 300 bytes each: 1.2 MB when full).
LEAF_CACHE_SIZE = 1 << 12


class GraphKey(NamedTuple):
    """Canonical identifier of an isomorphism class, totally ordered: by
    size |V| + |E|, then by vertex count n, then by least encoding enc."""

    size: int
    n: int
    enc: int

    @property
    def data(self) -> bytes:
        """The packed key: n in one byte, then enc's bits, left aligned."""
        m = self.n + self.n * (self.n - 1) // 2
        return bytes([self.n]) + (self.enc << (-m % 8)).to_bytes((m + 7) // 8, "big")

    def hex(self) -> str:
        return self.data.hex()


@lru_cache(maxsize=None)
def _bit_table(n: int) -> tuple[tuple[int, int, str], ...]:
    """For each bit of an encoding on n vertices, lowest first: the bit's
    end vertices (equal for a loop bit) and its line of the text format."""
    ends = [(v, v) for v in range(n)]
    ends += [(i, j) for i in range(n) for j in range(i + 1, n)]
    return tuple((u, v, f"loop {u}" if u == v else f"edge {u} {v}")
                 for u, v in reversed(ends))


def _set_bits(n: int, enc: int) -> list[tuple[int, int, str]]:
    """_bit_table's entries for enc's set bits, highest bit first: loops by
    vertex, then edges in row-major order, which is to_text's order."""
    table = _bit_table(n)
    found = []
    while enc:
        k = enc.bit_length() - 1
        found.append(table[k])
        enc ^= 1 << k
    return found


def _masks(n: int, enc: int) -> tuple[int, list[int]]:
    """Loop mask and adjacency masks of the graph an encoding describes."""
    loops = 0
    adj = [0] * n
    for u, v, _ in _set_bits(n, enc):
        if u == v:
            loops |= 1 << u
        else:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return loops, adj


def _decode(n: int, enc: int) -> Graph:
    """The graph an encoding describes; _bit_table's pairs are in range
    with u < v, so it is built unchecked.  Its sets are filled in the order
    Graph(...) fills them, so they iterate alike."""
    found = _set_bits(n, enc)
    return Graph._trusted(n, frozenset([u for u, v, _ in found if u == v]),
                          frozenset({(u, v) for u, v, _ in found if u != v}))


def _text(n: int, enc: int) -> str:
    """to_text of the graph an encoding describes, built without it."""
    return "\n".join([f"vertices {n}"] + [line for _, _, line in _set_bits(n, enc)]) + "\n"


def _key(n: int, enc: int) -> GraphKey:
    """Key of the class whose least encoding on n vertices is enc; the
    encoding holds one bit per loop and per edge."""
    return GraphKey(n + enc.bit_count(), n, enc)


def _min_encoding(g: Graph) -> tuple[int, int]:
    """min_encoding's pair for g: its least encoding over all vertex orders,
    which its key holds, and its number of automorphisms."""
    return kernels.min_encoding(g.n, loops_mask(g), adjacency_masks(g))


@lru_cache(maxsize=LEAF_CACHE_SIZE)
def _leaf_class(n: int, loops: int, bits: int) -> tuple[int, int]:
    """min_encoding's pair for the labelled leaf on n vertices with loop
    mask loops and adjacency rows packed in bits, _STRIDE bits apart."""
    return kernels.min_encoding(n, loops, [(bits >> v * _STRIDE) & _ROW for v in range(n)])


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def canonical_form(g: Graph) -> tuple[GraphKey, Graph]:
    """Key plus the canonically relabeled representative of g's class.  The
    printed key holds n in one byte, so more than 255 vertices are refused,
    before the search.  Every other caller of _key keys at most 20
    vertices, the subgraph walks' limit."""
    if g.n > 255:
        raise SizeLimitError("canonical keys support at most 255 vertices")
    enc = _min_encoding(g)[0]
    return _key(g.n, enc), _decode(g.n, enc)


def canonical_key(g: Graph) -> GraphKey:
    return canonical_form(g)[0]


def graph_from_key(key: GraphKey) -> Graph:
    return _decode(key.n, key.enc)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or len(g.loops) != len(h.loops) or len(g.edges) != len(h.edges):
        return False
    return canonical_key(g) == canonical_key(h)


@lru_cache(maxsize=None)
def enumerate_graphs(n_max: int) -> tuple[tuple[GraphKey, Graph], ...]:
    """All isomorphism classes with at most n_max vertices, in matrix order."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > ENUMERATE_MAX_VERTICES:
        raise SizeLimitError(
            f"enumeration is limited to {ENUMERATE_MAX_VERTICES} vertices"
        )
    # Least encodings on exactly n vertices, level by level: every graph on
    # n vertices is one on n - 1 plus a last vertex, looped or not, with
    # some set of neighbours, and relabeling its first n - 1 vertices
    # leaves its class alone, so growing each class on n - 1 reaches all.
    level = {0}
    keys = [_key(0, 0)]
    for n in range(1, n_max + 1):
        grown = set()
        for enc in level:
            loops, adj = _masks(n - 1, enc)
            for looped in (loops, loops | 1 << (n - 1)):
                for nbrs in range(1 << (n - 1)):
                    joined = [a | ((nbrs >> v) & 1) << (n - 1) for v, a in enumerate(adj)]
                    grown.add(kernels.min_encoding(n, looped, joined + [nbrs])[0])
        level = grown
        keys += [_key(n, enc) for enc in level]
    return tuple((key, graph_from_key(key)) for key in sorted(keys))
