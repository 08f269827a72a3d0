"""Finite graphs with loops: representation, text format, structural operations.

Vertices are the integers 0..n-1.  A graph stores a set of looped vertices
and a set of unordered non-loop edges; multi-edges are not representable.
The total size |V| + |E| (loops and non-loop edges both count toward |E|)
is the primary sort key wherever graphs index triangular matrices.

Graphs are immutable and hashable.  Every operation returns a new graph.
A graph is validated once, where it enters the program: Graph(...) checks
and normalizes whatever it is given.  Three constructions skip the check,
through Graph._trusted, because their input was checked already:
disjoint_union (two Graphs), parse_graph (after its own line-by-line
checks) and canonical._decode (the package's own encodings).  A
recovery joins its source to every member of a closed set, one union per
oracle query, and those unions made most of the checks.
Connected components come from one breadth-first walk, _components, over
adjacency lists; component_vertex_sets, the family shapes and the kernels'
target tables all read it.  A walk over bit masks is quadratic in vertex
ids: 300,000 isolated vertices took 4.1 s on masks and 0.41 s on lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphParseError


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 with loops and simple edges.

    ``loops`` is a frozenset of vertex indices, ``edges`` a frozenset of
    pairs (u, v) with u < v.  The constructor accepts any iterables and
    normalizes pair order; it rejects out-of-range indices and pairs with
    equal endpoints.  _trusted builds a graph from fields already in that
    form, with no check; see the module docstring for where it is used.
    """

    n: int
    loops: frozenset = frozenset()
    edges: frozenset = frozenset()

    def __post_init__(self):
        n = int(self.n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        loops = frozenset(int(v) for v in self.loops)
        for v in loops:
            if not 0 <= v < n:
                raise ValueError(f"loop vertex {v} out of range 0..{n - 1}")
        pairs = set()
        for e in self.edges:
            u, v = e
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"edge ({u}, {v}) has equal endpoints; use a loop")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range 0..{n - 1}")
            pairs.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "edges", frozenset(pairs))

    @classmethod
    def _trusted(cls, n: int, loops: frozenset, edges: frozenset) -> Graph:
        """The graph with these fields, unchecked: n an int, loops a
        frozenset of ints in 0..n-1, edges a frozenset of int pairs (u, v)
        with 0 <= u < v < n.  Callers look it up on Graph when they call it,
        so a wrapper set on the class sees every graph it builds."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, loops=loops, edges=edges)
        return g

    @property
    def size(self) -> int:
        """Total size |V| + |E|, loops included in |E|."""
        return self.n + len(self.loops) + len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges


def adjacency_masks(g: Graph) -> list[int]:
    """Non-loop adjacency as one bitmask per vertex (bit u of masks[v] set iff u~v)."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def loops_mask(g: Graph) -> int:
    m = 0
    for v in g.loops:
        m |= 1 << v
    return m


def induced_subgraph(h: Graph, s) -> Graph:
    """Subgraph induced by the vertex set s, reindexed 0..|s|-1 preserving order."""
    keep = sorted(set(int(v) for v in s))
    for v in keep:
        if not 0 <= v < h.n:
            raise ValueError(f"vertex {v} out of range 0..{h.n - 1}")
    pos = {v: i for i, v in enumerate(keep)}
    loops = (pos[v] for v in h.loops if v in pos)
    edges = ((pos[u], pos[v]) for u, v in h.edges if u in pos and v in pos)
    return Graph(len(keep), loops, edges)


def quotient(h: Graph, partition) -> Graph:
    """Merge each partition class into one vertex.

    A class becomes looped when it contains a looped vertex or an edge
    internal to the class; parallel cross edges collapse to one.  Classes
    are indexed by their smallest member, in increasing order.  The
    partition must cover 0..n-1 exactly once with nonempty classes.
    """
    classes = [sorted(set(int(v) for v in c)) for c in partition]
    if any(not c for c in classes):
        raise ValueError("partition classes must be nonempty")
    seen = [v for c in classes for v in c]
    if len(seen) != h.n or set(seen) != set(range(h.n)):
        raise ValueError("partition must cover each vertex exactly once")
    classes.sort(key=lambda c: c[0])
    cls_of = {}
    for i, c in enumerate(classes):
        for v in c:
            cls_of[v] = i
    loops = {cls_of[v] for v in h.loops}
    edges = set()
    for u, v in h.edges:
        a, b = cls_of[u], cls_of[v]
        if a == b:
            loops.add(a)
        else:
            edges.add((a, b) if a < b else (b, a))
    return Graph(len(classes), loops, edges)


def disjoint_union(g: Graph, f: Graph) -> Graph:
    """Disjoint union; f's vertices are shifted up by g.n."""
    k = g.n
    return Graph._trusted(k + f.n, g.loops | {v + k for v in f.loops},
                          g.edges | {(u + k, v + k) for u, v in f.edges})


def delete_nonloop_edge(h: Graph, e) -> Graph:
    """Remove one non-loop edge; vertices and loops are untouched."""
    u, v = e
    u, v = int(u), int(v)
    key = (u, v) if u < v else (v, u)
    if key not in h.edges:
        raise ValueError(f"edge {key} not present")
    return Graph(h.n, h.loops, h.edges - {key})


def _adjacency_lists(g: Graph) -> list[list[int]]:
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()
    return adj


def _components(g: Graph) -> list[tuple[tuple[int, ...], int, int, tuple[int, int] | None]]:
    """Per connected component of g, ordered by smallest vertex: its
    vertices in breadth-first order from the smallest, each vertex's
    neighbours in increasing order, its looped vertex count, its non-loop
    edge count and its 2-coloring part sizes (None when an odd cycle rules
    one out), all from one pass over the adjacency lists.  Loops do not
    affect connectivity."""
    adj = _adjacency_lists(g)
    color = [-1] * g.n
    out = []
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        comp = [start]
        ones = loops = degrees = 0
        bipartite = True
        for v in comp:
            ones += color[v]
            loops += v in g.loops
            degrees += len(adj[v])
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    comp.append(w)
                elif color[w] == color[v]:
                    bipartite = False
        # The garbage collector stops tracking a tuple of ints, not a list.
        parts = (len(comp) - ones, ones) if bipartite else None
        out.append((tuple(comp), loops, degrees // 2, parts))
    return out


def component_vertex_sets(g: Graph) -> list[list[int]]:
    """Vertex sets of connected components, each sorted, ordered by smallest member."""
    return [sorted(comp[0]) for comp in _components(g)]


def connected_components(g: Graph) -> list[Graph]:
    """Connected components as graphs, reindexed, ordered by smallest original vertex."""
    return [induced_subgraph(g, comp) for comp in component_vertex_sets(g)]


# Text format: a header line "vertices <n>", then one "edge <u> <v>" or
# "loop <u>" line per edge/loop.  '#' starts a comment, blank lines are
# ignored, duplicates are errors.


def to_text(g: Graph) -> str:
    lines = [f"vertices {g.n}"]
    lines.extend(f"loop {v}" for v in sorted(g.loops))
    lines.extend(f"edge {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = None
    loops: set[int] = set()
    edges: set[tuple[int, int]] = set()

    def fail(lineno, msg):
        raise GraphParseError(f"line {lineno}: {msg}")

    def to_int(lineno, tok):
        try:
            return int(tok)
        except ValueError:
            fail(lineno, f"expected an integer, got {tok!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "vertices" or len(parts) != 2:
                fail(lineno, "first directive must be 'vertices <n>'")
            n = to_int(lineno, parts[1])
            if n < 0:
                fail(lineno, "vertex count must be nonnegative")
            # Refused before anything is sized by n: 2^20 isolated vertices
            # already take seconds and hundreds of MB to classify.
            if n > 1 << 20:
                fail(lineno, f"vertex count {n} is over the limit of {1 << 20}")
            continue
        if parts[0] == "vertices":
            fail(lineno, "duplicate 'vertices' line")
        elif parts[0] == "loop":
            if len(parts) != 2:
                fail(lineno, "'loop' takes one vertex")
            v = to_int(lineno, parts[1])
            if not 0 <= v < n:
                fail(lineno, f"loop vertex {v} out of range 0..{n - 1}")
            if v in loops:
                fail(lineno, f"duplicate loop at {v}")
            loops.add(v)
        elif parts[0] == "edge":
            if len(parts) != 3:
                fail(lineno, "'edge' takes two vertices")
            u = to_int(lineno, parts[1])
            v = to_int(lineno, parts[2])
            if u == v:
                fail(lineno, f"edge endpoints must differ, got {u} {v}")
            if not (0 <= u < n and 0 <= v < n):
                fail(lineno, f"edge ({u}, {v}) out of range 0..{n - 1}")
            key = (u, v) if u < v else (v, u)
            if key in edges:
                fail(lineno, f"duplicate edge {key}")
            edges.add(key)
        else:
            fail(lineno, f"unknown directive {parts[0]!r}")
    if n is None:
        raise GraphParseError("missing 'vertices <n>' line")
    # The lines above checked every index, pair and duplicate.
    return Graph._trusted(n, frozenset(loops), frozenset(edges))


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"not UTF-8 text: {exc}") from None
    return parse_graph(text)


# Small named families, used by tests, docs, and benchmarks.


def complete_graph(k: int) -> Graph:
    return Graph(k, (), ((i, j) for i in range(k) for j in range(i + 1, k)))


def path_graph(k: int) -> Graph:
    return Graph(k, (), ((i, i + 1) for i in range(k - 1)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(k, (), [(i, (i + 1) % k) for i in range(k)])


def biclique(a: int, b: int) -> Graph:
    """Complete bipartite graph with parts 0..a-1 and a..a+b-1."""
    return Graph(a + b, (), ((i, a + j) for i in range(a) for j in range(b)))


def reflexive_clique(k: int) -> Graph:
    """Complete graph on k vertices with every loop present."""
    return Graph(k, range(k), ((i, j) for i in range(k) for j in range(i + 1, k)))
