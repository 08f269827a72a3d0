"""Structural target families with closed-form counting.

Family F: every connected component is a complete bipartite graph with no
loops (a biclique; isolated vertices and single edges included) or a
complete graph with every loop present (a reflexive clique).  Family C is
the subset where every biclique is a star (one side of size at most 1)
and every reflexive clique has at most 2 vertices.  C sits inside F, and
C is exactly the part of F that stays in F under arbitrary vertex and
non-loop-edge deletions; for a target in F but not in C some single edge
deletion already leaves F, and find_hard_edge locates one.

Against targets in F, homomorphism counts have a closed form (a product
over source components of sums over target components); the two
surjective variants reduce to such counts for targets in F and in C
respectively.  Everything here is polynomial in the source for a fixed
target.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InternalCheckError, SizeLimitError
from .graphs import (
    Graph,
    _adjacency_lists,
    connected_components,
    delete_nonloop_edge,
)
from .inversion import signed_deletion_subgraphs, signed_induced_subgraphs

BICLIQUE = "biclique"
REFLEXIVE_CLIQUE = "reflexive_clique"
UNRECOGNIZED = "unrecognized"

# Most terms a closed-form surjective sum may have; each term is one
# closed-form homomorphism count into a subgraph of the target.
CLOSED_FORM_TERM_LIMIT = 1 << 14


@dataclass(frozen=True)
class ComponentShape:
    """Shape of one connected component: biclique(a, b) with a >= b,
    reflexive_clique(k), or unrecognized."""

    kind: str
    a: int = 0
    b: int = 0
    k: int = 0

    @classmethod
    def biclique(cls, a: int, b: int) -> "ComponentShape":
        a, b = (a, b) if a >= b else (b, a)
        return cls(BICLIQUE, a=a, b=b)

    @classmethod
    def reflexive_clique(cls, k: int) -> "ComponentShape":
        return cls(REFLEXIVE_CLIQUE, k=k)

    @classmethod
    def unrecognized(cls) -> "ComponentShape":
        return cls(UNRECOGNIZED)

    def label(self) -> str:
        if self.kind == BICLIQUE:
            return f"biclique({self.a},{self.b})"
        if self.kind == REFLEXIVE_CLIQUE:
            return f"reflexive_clique({self.k})"
        return UNRECOGNIZED


def _bipartition_sizes(c: Graph) -> tuple[int, int] | None:
    """Part sizes (larger first) of a connected loop-free graph, or None if
    an odd cycle makes 2-coloring impossible."""
    color = [-1] * c.n
    adj = _adjacency_lists(c)
    color[0] = 0
    dq = deque([0])
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if color[w] == -1:
                color[w] = 1 - color[v]
                dq.append(w)
            elif color[w] == color[v]:
                return None
    ones = sum(color)
    x, y = c.n - ones, ones
    return (x, y) if x >= y else (y, x)


def component_shape(c: Graph) -> ComponentShape:
    """Classify one connected graph."""
    if c.n == 0:
        raise ValueError("components are nonempty")
    if len(c.loops) == c.n:
        if len(c.edges) == c.n * (c.n - 1) // 2:
            return ComponentShape.reflexive_clique(c.n)
        return ComponentShape.unrecognized()
    if c.loops:
        return ComponentShape.unrecognized()
    parts = _bipartition_sizes(c)
    if parts is None:
        return ComponentShape.unrecognized()
    a, b = parts
    if len(c.edges) == a * b:
        return ComponentShape.biclique(a, b)
    return ComponentShape.unrecognized()


def classify_F(h: Graph) -> tuple[bool, list[ComponentShape]]:
    """Membership in F plus the per-component shapes (component order
    follows smallest original vertex)."""
    shapes = [component_shape(c) for c in connected_components(h)]
    return all(s.kind != UNRECOGNIZED for s in shapes), shapes


def _in_C(shape: ComponentShape) -> bool:
    if shape.kind == BICLIQUE:
        return shape.b <= 1
    if shape.kind == REFLEXIVE_CLIQUE:
        return shape.k <= 2
    return False


def classify_C(h: Graph) -> tuple[bool, list[ComponentShape]]:
    """Membership in C (stars and reflexive cliques of size at most 2)."""
    shapes = [component_shape(c) for c in connected_components(h)]
    return all(_in_C(s) for s in shapes), shapes


def find_hard_edge(h: Graph) -> tuple[int, int]:
    """Lexicographically smallest non-loop edge whose deletion leaves F.

    Defined for targets in F but not in C; such an edge always exists there
    (deleting one cross edge of a fat biclique or one edge of a reflexive
    clique on 3 or more vertices breaks completeness without splitting the
    component).
    """
    in_f, _ = classify_F(h)
    if not in_f:
        raise ValueError("hard edges are defined only for targets in F")
    in_c, _ = classify_C(h)
    if in_c:
        raise ValueError("targets in C have no hard edge")
    for e in sorted(h.edges):
        if not classify_F(delete_nonloop_edge(h, e))[0]:
            return e
    raise InternalCheckError("no hard edge found for a target in F minus C")


def _source_components(g: Graph) -> list[tuple[int, tuple[int, int] | None]]:
    """Per connected component of g, its vertex count and its 2-coloring
    part sizes (None when a loop or an odd cycle rules one out): all the
    closed forms need of the source, computed once per count."""
    return [
        (gc.n, None if gc.loops else _bipartition_sizes(gc))
        for gc in connected_components(g)
    ]


def _hom_closed_form(comps, shapes: list[ComponentShape]) -> int:
    """Homomorphism count from a source given by _source_components into a
    target whose components have the given recognized shapes.

    A connected source component lands inside a single target component, so
    the count is the product over source components of the sum over target
    components.  Maps into a reflexive clique on k vertices are
    unconstrained (k^|V|); maps into a biclique follow the source's
    2-coloring, one term per orientation.
    """
    result = 1
    for n, parts in comps:
        total = 0
        for s in shapes:
            if s.kind == REFLEXIVE_CLIQUE:
                total += s.k**n
            elif parts is not None:
                x, y = parts
                total += s.a**x * s.b**y + s.a**y * s.b**x
        if total == 0:
            return 0
        result *= total
    return result


def hom_polytime(g: Graph, h: Graph, shapes: list[ComponentShape]) -> int:
    """Homomorphism count via closed forms; shapes must describe h's
    components as returned by classify_F."""
    comps_h = connected_components(h)
    if len(shapes) != len(comps_h):
        raise ValueError("shape list does not match the target's components")
    if any(s.kind == UNRECOGNIZED for s in shapes):
        raise ValueError("target is not in F")
    for c, s in zip(comps_h, shapes):
        if component_shape(c) != s:
            raise ValueError("shape list does not match the target's components")
    return _hom_closed_form(_source_components(g), shapes)


def _check_term_count(terms: int) -> None:
    """Refuse a closed-form sum of more than CLOSED_FORM_TERM_LIMIT terms;
    call it before the first term."""
    if terms > CLOSED_FORM_TERM_LIMIT:
        raise SizeLimitError(
            f"the closed-form sum would have {terms} terms, "
            f"over the limit of {CLOSED_FORM_TERM_LIMIT}"
        )


def _signed_hom_sum(g: Graph, terms) -> int:
    """Sum of sign * hom(g, sub) over (sign, sub) terms in F, coloring the
    source once for all of them."""
    comps = _source_components(g)
    total = 0
    for sign, sub in terms:
        ok, sub_shapes = classify_F(sub)
        if not ok:
            raise InternalCheckError("a signed subgraph of a target in F left F")
        total += sign * _hom_closed_form(comps, sub_shapes)
    return total


def vsurj_polytime(g: Graph, h: Graph) -> int:
    """Vertex-surjective count for targets in F, via the signed sum of
    closed-form homomorphism counts over the 2^|V(h)| induced subgraphs of h."""
    in_f, _ = classify_F(h)
    if not in_f:
        raise ValueError("target is not in F")
    if g.n < h.n:
        return 0
    _check_term_count(1 << h.n)
    return _signed_hom_sum(g, signed_induced_subgraphs(h))


def vesurj_polytime(g: Graph, h: Graph) -> int:
    """Compaction count for targets in C, via the inclusion-exclusion sum of
    closed-form homomorphism counts over signed deletion subgraphs of h: one
    term per set of non-loop edges and set of vertices on no such edge."""
    in_c, _ = classify_C(h)
    if not in_c:
        raise ValueError("target is not in C")
    if g.n < h.n or len(g.edges) < len(h.edges):
        return 0
    bare = h.n - len({v for e in h.edges for v in e})
    _check_term_count(1 << (len(h.edges) + bare))
    return _signed_hom_sum(g, signed_deletion_subgraphs(h))


def classification_json(h: Graph) -> dict:
    """Classification record: family memberships, component shape labels,
    and the hard edge when one exists."""
    in_f, shapes = classify_F(h)
    in_c, _ = classify_C(h)
    hard = None
    if in_f and not in_c:
        hard = list(find_hard_edge(h))
    return {
        "in_F": in_f,
        "in_C": in_c,
        "components": [s.label() for s in shapes],
        "hard_edge": hard,
    }
