"""Structural target families with closed-form counting.

Family F: every connected component is a complete bipartite graph with no
loops (a biclique; isolated vertices and single edges included) or a
complete graph with every loop present (a reflexive clique).  Family C is
the subset where every biclique is a star (one side of size at most 1)
and every reflexive clique has at most 2 vertices.  C sits inside F, and
C is exactly the part of F that stays in F under arbitrary vertex and
non-loop-edge deletions; deleting any edge of a component outside C
already leaves F.  _classify reads a target's shapes, both memberships
and that hard edge off one graphs._components walk, for every reader.

Against targets in F, homomorphism counts have a closed form (a product
over source components of sums over target components).  The two
surjective variants are signed sums of such counts, over the induced
subgraphs of a target in F and over the deletion subgraphs of a target in
C.  Every such subgraph stays in its family, and its count depends only on
the multiset of component shapes it has, so each target component
contributes its few shape outcomes with binomial multiplicities and the
sum runs over distinct multisets, never over subsets.  Shapes and the
source's profile come from graphs._components, read once per count.
Everything here is polynomial in the source for a fixed target.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import SizeLimitError
from .graphs import Graph, _components

BICLIQUE = "biclique"
REFLEXIVE_CLIQUE = "reflexive_clique"
UNRECOGNIZED = "unrecognized"

# Most shape multisets a closed-form surjective sum may fold; each one
# left at the end costs one closed-form homomorphism count.
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


def _shape(n: int, loops: int, edges: int, parts) -> ComponentShape:
    """Shape of a connected component from its graphs._components counts."""
    if loops == n:
        if edges == n * (n - 1) // 2:
            return ComponentShape.reflexive_clique(n)
        return ComponentShape.unrecognized()
    if loops or parts is None or edges != parts[0] * parts[1]:
        return ComponentShape.unrecognized()
    return ComponentShape.biclique(*parts)


def _in_C(shape: ComponentShape) -> bool:
    if shape.kind == BICLIQUE:
        return shape.b <= 1
    if shape.kind == REFLEXIVE_CLIQUE:
        return shape.k <= 2
    return False


def _classify(h: Graph) -> tuple[list[ComponentShape], bool, bool, tuple[int, int] | None]:
    """h's component shapes, membership in F and in C, and hard edge (None
    unless h is in F but not in C), from one graphs._components walk.

    The hard edge is the least edge of the first component outside C (a
    biclique with both sides of size 2 or more, or a reflexive clique on 3
    or more vertices), which has no bridge: deleting it leaves one
    component that is not complete.  _components lists a component's
    vertices breadth first from its smallest over sorted adjacency lists,
    so its first two vertices form its least edge.
    """
    comps = _components(h)
    shapes = [_shape(len(vs), *counts) for vs, *counts in comps]
    in_f = all(s.kind != UNRECOGNIZED for s in shapes)
    outside_c = [vs for (vs, *_), s in zip(comps, shapes) if not _in_C(s)]
    hard = outside_c[0][:2] if in_f and outside_c else None
    return shapes, in_f, not outside_c, hard


def classify_F(h: Graph) -> tuple[bool, list[ComponentShape]]:
    """Membership in F plus the per-component shapes (component order
    follows smallest original vertex)."""
    shapes, in_f, _, _ = _classify(h)
    return in_f, shapes


def classify_C(h: Graph) -> tuple[bool, list[ComponentShape]]:
    """Membership in C (stars and reflexive cliques of size at most 2)."""
    shapes, _, in_c, _ = _classify(h)
    return in_c, shapes


def find_hard_edge(h: Graph) -> tuple[int, int]:
    """Least non-loop edge of a component of h outside C, whose deletion
    leaves F; defined for targets in F but not in C, which have one."""
    _, in_f, in_c, hard = _classify(h)
    if not in_f:
        raise ValueError("hard edges are defined only for targets in F")
    if in_c:
        raise ValueError("targets in C have no hard edge")
    return hard


def _source_components(g: Graph) -> list[tuple[int, tuple[int, int] | None]]:
    """Per connected component of g, its vertex count and its 2-coloring
    part sizes (None when a loop or an odd cycle rules one out): all the
    closed forms need of the source, computed once per count."""
    return [(len(vs), None if loops else parts) for vs, loops, _, parts in _components(g)]


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


def hom_polytime(g: Graph, h: Graph) -> int:
    """Homomorphism count via closed forms, for targets in F."""
    return _in_family(_closed_form_count("hom", g, h), "F")


_K1 = ComponentShape.biclique(1, 0)
_L1 = ComponentShape.reflexive_clique(1)


def _vsurj_outcomes(s: ComponentShape):
    """(coefficient, shapes left) for every induced subgraph of one target
    component, grouped by what is left: a biclique keeps a' and b' of its
    sides (isolated vertices when one side is empty), a reflexive clique
    keeps k' vertices; the sign counts deleted vertices."""
    if s.kind == REFLEXIVE_CLIQUE:
        for k in range(s.k + 1):
            shapes = [ComponentShape.reflexive_clique(k)] if k else []
            yield (-1) ** (s.k - k) * comb(s.k, k), shapes
        return
    for a in range(s.a + 1):
        for b in range(s.b + 1):
            shapes = [ComponentShape.biclique(a, b)] if a and b else [_K1] * (a + b)
            yield (-1) ** (s.a - a + s.b - b) * comb(s.a, a) * comb(s.b, b), shapes


def _vesurj_outcomes(s: ComponentShape):
    """(coefficient, shapes left) for every signed deletion subgraph of one
    target component in C: a star with k leaves loses j edges, a reflexive
    K2 its edge, and a vertex on no edge is kept or deleted."""
    if s in (_K1, _L1):
        yield from ((1, [s]), (-1, []))
    elif s.kind == REFLEXIVE_CLIQUE:
        yield from ((1, [s]), (-1, [_L1, _L1]))
    else:
        for j in range(s.a + 1):
            rest = [ComponentShape.biclique(s.a - j, 1)] if j < s.a else [_K1]
            yield (-1) ** j * comb(s.a, j), rest + [_K1] * j


def _signed_shape_sum(g: Graph, shapes: list[ComponentShape], outcomes) -> int:
    """Sum over one outcome per target component of the product of their
    coefficients times hom(g, the shapes left).

    The terms are folded component by component into a map from the
    multiset of shapes left (a sorted tuple of indices into the shapes
    seen) to its coefficient, and each nonzero entry costs one closed-form
    count.  The map is refused once it would hold more than
    CLOSED_FORM_TERM_LIMIT multisets, before any count is made.
    """
    index: dict[ComponentShape, int] = {}
    states = {(): 1}
    for s in shapes:
        grouped: dict[tuple[int, ...], int] = {}
        for coeff, left in outcomes(s):
            key = tuple(index.setdefault(t, len(index)) for t in left)
            grouped[key] = grouped.get(key, 0) + coeff
        folded: dict[tuple[int, ...], int] = {}
        for state, coeff in states.items():
            for left, mult in grouped.items():
                key = tuple(sorted(state + left))
                if key in folded:
                    folded[key] += coeff * mult
                elif len(folded) < CLOSED_FORM_TERM_LIMIT:
                    folded[key] = coeff * mult
                else:
                    raise SizeLimitError(
                        f"the closed-form sum would fold more than {CLOSED_FORM_TERM_LIMIT} "
                        "shape multisets, over the limit"
                    )
        states = {key: coeff for key, coeff in folded.items() if coeff}
    universe = list(index)
    comps = _source_components(g)
    return sum(
        coeff * _hom_closed_form(comps, [universe[i] for i in key])
        for key, coeff in states.items()
    )


def _closed_form_count(kind: str, g: Graph, h: Graph) -> int | None:
    """The hom, vsurj or vesurj count from g into h by closed forms, from
    one classification of h; None when h is outside the kind's family (C
    for vesurj, F for the others)."""
    shapes, in_f, in_c, _ = _classify(h)
    if kind == "vesurj":
        if not in_c:
            return None
        if g.n < h.n or len(g.edges) < len(h.edges):
            return 0
        return _signed_shape_sum(g, shapes, _vesurj_outcomes)
    if not in_f:
        return None
    if kind == "hom":
        return _hom_closed_form(_source_components(g), shapes)
    if g.n < h.n:
        return 0
    return _signed_shape_sum(g, shapes, _vsurj_outcomes)


def _in_family(count: int | None, family: str) -> int:
    if count is None:
        raise ValueError(f"target is not in {family}")
    return count


def vsurj_polytime(g: Graph, h: Graph) -> int:
    """Vertex-surjective count for targets in F: the signed sum of
    hom(g, h[S]) over vertex subsets S, grouped by the multiset of
    component shapes h[S] has, so each distinct multiset costs one
    closed-form count."""
    return _in_family(_closed_form_count("vsurj", g, h), "F")


def vesurj_polytime(g: Graph, h: Graph) -> int:
    """Compaction count for targets in C: the inclusion-exclusion sum of
    hom(g, h - A - B) over sets B of non-loop edges and sets A of vertices
    on no such edge, grouped by the multiset of component shapes left, so
    each distinct multiset costs one closed-form count."""
    return _in_family(_closed_form_count("vesurj", g, h), "C")


def classification_json(h: Graph) -> dict:
    """Classification record: family memberships, component shape labels,
    and the hard edge when one exists."""
    shapes, in_f, in_c, hard = _classify(h)
    return {
        "in_F": in_f,
        "in_C": in_c,
        "components": [s.label() for s in shapes],
        "hard_edge": list(hard) if hard else None,
    }
