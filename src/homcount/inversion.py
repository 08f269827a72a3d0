"""Subgraph-counting matrices and their exact inversion.

Two triangular matrices indexed by isomorphism classes in matrix order:

  ind(f, h)   number of vertex subsets of h inducing a copy of f;
  dsub(f, h)  number of deletion subgraphs of h isomorphic to f, where a
              deletion subgraph keeps a vertex subset V', all loops inside
              V', and any subset of the non-loop edges inside V'.

Both have ones on the diagonal and vanish unless size(f) <= size(h).  The
column of the inverse of dsub at h, an inclusion-exclusion over the vertices
and non-loop edges a compaction onto h must cover, converts homomorphism
counts into compaction counts; the signed subset sum over induced subgraphs
converts them into vertex-surjective counts.

verify_expansions replays the two expansions that make this work, and their
inverses, as identities between matrices over the classes up to a size:
hom = vsurj . ind^T, hom = vesurj . dsub^T, and the signed and inverse
columns back.  It computes the hom, vsurj and vesurj tables once over the
canonical representatives and each target's columns once, then checks every
identity entry as an integer dot product, reporting any violation.  There
the counters run on canonical representatives only; counting on other
labelings is checked against naive counters by the test suite.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .canonical import (
    GraphKey,
    canonical_form,
    canonical_key,
    enumerate_graphs,
    graph_from_key,
)
from .counting import hom_count, vesurj_count, vsurj_count
from .errors import SizeLimitError
from .graphs import Graph, induced_subgraph, to_text

DSUB_PAIR_LIMIT = 1 << 20
# Largest n_max verify_expansions accepts.  At 5 it checks 663 classes in
# about a minute; at 6, enumerating the 5,759 classes alone takes 20 s, and
# their tables hold 75 times as many pairs.
VERIFY_MAX_VERTICES = 5


class CoeffVector:
    """Finite-support map from isomorphism classes to signed integers.

    Zero coefficients are dropped on construction.  Each stored key keeps a
    representative graph so callers can rebuild inputs for counting.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        store = {}
        for key, (rep, coeff) in (entries or {}).items():
            if coeff != 0:
                store[key] = (rep, int(coeff))
        self._entries = store

    @classmethod
    def from_pairs(cls, pairs) -> "CoeffVector":
        """Aggregate (graph, coefficient) pairs by isomorphism class."""
        store = {}
        for g, coeff in pairs:
            key, rep = canonical_form(g)
            if key in store:
                store[key] = (store[key][0], store[key][1] + coeff)
            else:
                store[key] = (rep, coeff)
        return cls(store)

    def coeff(self, key: GraphKey) -> int:
        entry = self._entries.get(key)
        return entry[1] if entry else 0

    __getitem__ = coeff

    def rep(self, key: GraphKey) -> Graph:
        return self._entries[key][0]

    def support(self) -> list[GraphKey]:
        return sorted(self._entries)

    def items(self) -> list[tuple[GraphKey, Graph, int]]:
        """Entries as (key, representative, coefficient) in matrix order."""
        return [(k, self._entries[k][0], self._entries[k][1]) for k in sorted(self._entries)]

    def to_json_entries(self) -> list[dict]:
        return [{"graph": to_text(rep), "coeff": str(c)} for _, rep, c in self.items()]

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def __eq__(self, other):
        if not isinstance(other, CoeffVector):
            return NotImplemented
        return {k: v[1] for k, v in self._entries.items()} == {
            k: v[1] for k, v in other._entries.items()
        }

    def __repr__(self):
        inner = ", ".join(f"{k.hex()}: {c}" for k, _, c in self.items())
        return f"CoeffVector({{{inner}}})"


def ind_count(f: Graph, h: Graph) -> int:
    """Number of vertex subsets S of h with h[S] isomorphic to f."""
    if f.size > h.size or f.n > h.n:
        return 0
    kf = canonical_key(f)
    return sum(
        1
        for s in combinations(range(h.n), f.n)
        if canonical_key(induced_subgraph(h, s)) == kf
    )


def signed_induced_subgraphs(h: Graph):
    """Yield (sign, h[S]) for every vertex subset S of h, the sign being -1
    raised to the number of deleted vertices: the coefficients that turn
    homomorphism counts into vertex-surjective ones."""
    for r in range(h.n + 1):
        sign = -1 if (h.n - r) % 2 else 1
        for s in combinations(range(h.n), r):
            yield sign, induced_subgraph(h, s)


def signed_deletion_subgraphs(h: Graph):
    """Yield (sign, h - A - B) for every set A of vertices on no non-loop
    edge and every set B of non-loop edges, the sign being (-1)^(|A|+|B|):
    inclusion-exclusion over what a compaction must cover.  Deleting a
    vertex with an edge on it cancels in pairs (with and without that edge
    in B), so such A are skipped."""
    on_edge = {v for e in h.edges for v in e}
    bare = [v for v in range(h.n) if v not in on_edge]
    edges = sorted(h.edges)
    for b in range(len(edges) + 1):
        for gone_edges in combinations(edges, b):
            hb = Graph(h.n, h.loops, h.edges.difference(gone_edges))
            for a in range(len(bare) + 1):
                for gone in combinations(bare, a):
                    yield (-1) ** (a + b), induced_subgraph(hb, set(range(h.n)) - set(gone))


@lru_cache(maxsize=None)
def _deletion_pair_bound(n: int) -> int:
    """Labeled deletion pairs of the complete graph on n vertices: an upper
    bound on _deletion_pair_total for every graph on n vertices."""
    return sum(comb(n, r) << comb(r, 2) for r in range(n + 1))


def _deletion_pair_total(h: Graph) -> int:
    total = 0
    for r in range(h.n + 1):
        for s in combinations(range(h.n), r):
            keep = set(s)
            inside = sum(1 for u, v in h.edges if u in keep and v in keep)
            total += 1 << inside
    return total


@lru_cache(maxsize=None)
def _downset_of(key: GraphKey) -> tuple[tuple[GraphKey, Graph, int], ...]:
    """Isomorphism classes of deletion subgraphs with multiplicities, in
    matrix order.  Cached per class; multiplicities are label-independent."""
    h = graph_from_key(key)
    acc: dict[GraphKey, list] = {}
    for r in range(h.n + 1):
        for s in combinations(range(h.n), r):
            sub = induced_subgraph(h, s)
            e2 = sorted(sub.edges)
            for k in range(len(e2) + 1):
                for chosen in combinations(e2, k):
                    cand = Graph(sub.n, sub.loops, chosen)
                    ck, rep = canonical_form(cand)
                    if ck in acc:
                        acc[ck][1] += 1
                    else:
                        acc[ck] = [rep, 1]
    return tuple((k, acc[k][0], acc[k][1]) for k in sorted(acc))


def _check_pair_limit(h: Graph) -> None:
    """Refuse h above DSUB_PAIR_LIMIT labeled deletion pairs.  Call it before
    canonicalizing h, which is itself exponential in h's vertex count.  The
    exact total is computed only when the bound for h's vertex count exceeds
    the limit (never up to 6 vertices), so cached lookups stay cheap."""
    if (
        _deletion_pair_bound(h.n) > DSUB_PAIR_LIMIT
        and _deletion_pair_total(h) > DSUB_PAIR_LIMIT
    ):
        raise SizeLimitError(
            f"deletion-subgraph enumeration would exceed {DSUB_PAIR_LIMIT} pairs"
        )


def dsub_downset(h: Graph) -> tuple[tuple[GraphKey, Graph, int], ...]:
    """All classes f with dsub(f, h) > 0, with those counts, in matrix order."""
    _check_pair_limit(h)
    return _downset_of(canonical_key(h))


def dsub_count(f: Graph, h: Graph) -> int:
    """Number of deletion subgraphs of h isomorphic to f."""
    if f.size > h.size or f.n > h.n:
        return 0
    kf = canonical_key(f)
    for key, _, mult in dsub_downset(h):
        if key == kf:
            return mult
    return 0


def dsub_inverse_column(h: Graph) -> CoeffVector:
    """Column of the inverse of the dsub matrix at h: the signed deletion
    subgraphs of h, aggregated by isomorphism class."""
    _check_pair_limit(h)
    return CoeffVector.from_pairs((sub, sign) for sign, sub in signed_deletion_subgraphs(h))


def vsurj_via_inversion(g: Graph, h: Graph) -> int:
    """Vertex-surjective count as the signed sum of homomorphism counts into
    the induced subgraphs of h (sign by the number of deleted vertices)."""
    return sum(sign * hom_count(g, sub) for sign, sub in signed_induced_subgraphs(h))


def vesurj_via_inversion(g: Graph, h: Graph) -> int:
    """Compaction count as the inverse-column-weighted sum of homomorphism
    counts into the deletion subgraphs of h."""
    col = dsub_inverse_column(h)
    return sum(c * hom_count(g, rep) for _, rep, c in col.items())


def verify_expansions(n_max: int) -> dict:
    """Replay both expansions for every ordered pair of classes up to n_max.

    Checks, per pair (g, h): the homomorphism count equals the sum of
    vertex-surjective counts over induced subgraphs of h, and equals the
    dsub-weighted sum of compaction counts; and both inversion routes agree
    with the brute-force counters.  Returns a report dict; the violations
    list is expected to stay empty.

    The pairs are entries of class tables: each counter runs once per
    ordered pair of canonical representatives, and each target's induced,
    signed induced, downset and inverse columns are built once and mapped to
    class indices, so every check is a dot product of a table row with a
    column.  n_max above VERIFY_MAX_VERTICES is refused before any class
    is enumerated.
    """
    if n_max > VERIFY_MAX_VERTICES:
        raise SizeLimitError(
            f"verify is limited to {VERIFY_MAX_VERTICES} vertices; the tables for "
            f"{n_max} would take over an hour"
        )
    classes = enumerate_graphs(n_max)
    index = {key: i for i, (key, _) in enumerate(classes)}
    reps = [rep for _, rep in classes]
    hom = [[hom_count(g, h) for h in reps] for g in reps]
    vsurj = [[vsurj_count(g, h) for h in reps] for g in reps]
    vesurj = [[vesurj_count(g, h) for h in reps] for g in reps]

    def on_classes(entries):
        return [(index[key], c) for key, _, c in entries]

    signed, ind, down, inv = [], [], [], []
    for h in reps:
        terms = ((sub, sign) for sign, sub in signed_induced_subgraphs(h))
        col = on_classes(CoeffVector.from_pairs(terms).items())
        signed.append(col)
        # The sign depends only on how many vertices were deleted, so every
        # induced copy of one class carries the same sign.
        ind.append([(f, abs(c)) for f, c in col])
        down.append(on_classes(dsub_downset(h)))
        inv.append(on_classes(dsub_inverse_column(h).items()))

    def dot(row, column):
        return sum(c * row[f] for f, c in column)

    violations = []

    def record(name, g, h, left, right):
        violations.append(
            {
                "identity": name,
                "g": to_text(g),
                "h": to_text(h),
                "left": str(left),
                "right": str(right),
            }
        )

    pairs = 0
    for i, g in enumerate(reps):
        for j, h in enumerate(reps):
            pairs += 1
            hom_gh = hom[i][j]
            total = dot(vsurj[i], ind[j])
            if total != hom_gh:
                record("hom = sum of vsurj over induced subgraphs", g, h, hom_gh, total)
            total = dot(vesurj[i], down[j])
            if total != hom_gh:
                record("hom = dsub-weighted sum of vesurj", g, h, hom_gh, total)
            vs = vsurj[i][j]
            vsi = dot(hom[i], signed[j])
            if vs != vsi:
                record("vsurj = signed hom sum", g, h, vs, vsi)
            ve = vesurj[i][j]
            vei = dot(hom[i], inv[j])
            if ve != vei:
                record("vesurj = inverse-column hom sum", g, h, ve, vei)
    return {
        "n_max": n_max,
        "classes": len(classes),
        "pairs": pairs,
        "checks": 4 * pairs,
        "violations": violations,
    }
