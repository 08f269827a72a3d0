"""Subgraph-counting matrices and their exact inversion.

Two triangular matrices indexed by isomorphism classes in matrix order:

  ind(f, h)   number of vertex subsets of h inducing a copy of f;
  dsub(f, h)  number of deletion subgraphs of h isomorphic to f, where a
              deletion subgraph keeps a vertex subset V', all loops inside
              V', and any subset of the non-loop edges inside V'.

Both have ones on the diagonal and vanish unless size(f) <= size(h).  The
column of the inverse of dsub at h, an inclusion-exclusion over the vertices
and non-loop edges a compaction onto h must cover, converts homomorphism
counts into compaction counts; that of ind, the signed subset sum over
induced subgraphs, into vertex-surjective counts.  One walk over the labeled
subgraphs of h's class, cached per class and kind (induced or deletion),
records per subgraph class its copies, the entry of ind or dsub, and their
signed sum, the entry of the inverse column.  Its leaves are packed masks
keyed through canonical's leaf memo; it returns keys and builds no Graph.

verify_expansions replays the two expansions that make this work, and their
inverses, as identities between matrices over the classes up to a size:
hom = vsurj . ind^T, hom = vesurj . dsub^T, and the signed and inverse
columns back.  It computes the vsurj and vesurj tables once over the
canonical representatives, the hom table from the connected classes alone
(counting.hom_table), and each target's columns from its two walks.  Each
table column is packed into one integer with a slot per source, wide enough
that no slot can carry into the next, so an identity at a target, for all
sources at once, is one exact integer combination of packed columns
compared with the packed left column; only a column that differs is
recomputed entry by entry to report its violations.  There the counters
run on canonical representatives only; counting on other labelings is
checked against naive counters by the test suite.

The three tables are shared: _expansions returns them, indexed by class,
with the report, and the verify command reads the rest of its checks off
them, the diagonal vsurj(h, h) and vesurj(h, h) and each closed set's
Lovász matrix as a submatrix of the hom table, so each class pair is
counted once per counter.  Both walks of a class are read by the key
enumerate_graphs holds, with no key search on the representative first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from . import kernels
from .canonical import (_STRIDE, GraphKey, _key, _leaf_class, _masks, _min_encoding,
                        canonical_key, enumerate_graphs, graph_from_key)
from .counting import hom_count, hom_table, vesurj_count, vsurj_count
from .errors import SizeLimitError
from .graphs import Graph, _components, adjacency_masks, loops_mask, to_text

DSUB_PAIR_LIMIT = 1 << 20
# Subgraph walks kept, one per (class, kind); verify --n-max 5 makes 1,326.
WALK_CACHE_SIZE = 1 << 11
# Largest n_max verify_expansions accepts.  At 5 it checks 663 classes in
# about 21 s; at 6 the 5,759 classes enumerate in about 1 s, but their
# tables hold 75 times as many pairs.
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
    """Number of vertex subsets S of h with h[S] isomorphic to f.  h is
    refused, before f is keyed, when those C(n, k) subsets pass
    DSUB_PAIR_LIMIT.  h's adjacency and loop masks are read once; a subset
    is searched for its least encoding only when it has as many loops and
    edges as f, and its subgraph is built from the chosen vertices' masks
    alone."""
    if f.size > h.size or f.n > h.n:
        return 0
    if comb(h.n, f.n) > DSUB_PAIR_LIMIT:
        raise SizeLimitError(
            f"induced-subgraph enumeration would exceed {DSUB_PAIR_LIMIT} vertex subsets"
        )
    enc = _min_encoding(f)[0]
    loops, adj = loops_mask(h), adjacency_masks(h)
    f_loops, f_ends = len(f.loops), 2 * len(f.edges)
    found = 0
    for s in combinations(range(h.n), f.n):
        chosen = sum(1 << v for v in s)
        if (loops & chosen).bit_count() != f_loops or sum(
            (adj[v] & chosen).bit_count() for v in s
        ) != f_ends:
            continue
        found += kernels.min_encoding(f.n, *_relabel(loops, adj, s, chosen))[0] == enc
    return found


def _relabel(loops: int, adj: list[int], s, chosen: int) -> tuple[int, list[int]]:
    """Loop mask and adjacency masks of the subgraph induced by the vertices
    s, whose mask is chosen, with vertex s[j] relabelled j."""
    looped = sum(1 << j for j, v in enumerate(s) if (loops >> v) & 1)
    return looped, [sum(1 << j for j, u in enumerate(s) if (adj[v] >> u) & 1)
                    if adj[v] & chosen else 0 for v in s]


def _deletion_pair_total(h: Graph, limit: int) -> int:
    """Labeled deletion pairs of h, the sum over vertex subsets S of 2^e(S)
    for e(S) the non-loop edges inside S, until it passes limit.  The sum
    multiplies over h's components (a lone vertex gives 2); each factor
    sums its component's subsets largest first, which passes limit soonest."""
    adj = adjacency_masks(h)
    total = 1
    for comp, _, _, _ in _components(h):
        part = 0
        for r in range(len(comp), -1, -1):
            for s in combinations(comp, r):
                chosen = sum(1 << v for v in s)
                part += 1 << sum((adj[v] & chosen).bit_count() for v in s) // 2
                if total * part > limit:
                    return total * part
        total *= part
    return total


@lru_cache(maxsize=WALK_CACHE_SIZE)
def _walk(key: GraphKey, deletions: bool) -> tuple[tuple[GraphKey, int, int], ...]:
    """Classes of the induced subgraphs of the class key, or with deletions
    of its deletion subgraphs, in matrix order, as (key, labeled copies,
    signed sum).  A copy's sign is -1 to the number of vertices and edges
    it deletes; the deletion walk sums only copies that delete no vertex on
    a non-loop edge, since the inclusion-exclusion over what a compaction
    covers cancels the others in pairs.  Each vertex subset is relabelled
    once into canonical's packed rows, its edge sets are visited in
    Gray-code order, one edge's two bits flipped per leaf, and every leaf
    is keyed through canonical._leaf_class."""
    n = key.n
    loops, adj = _masks(n, key.enc)
    on_edge = sum(1 << v for v in range(n) if adj[v])
    acc: dict[tuple[int, int], list[int]] = {}
    for r in range(n + 1):
        for s in combinations(range(n), r):
            chosen = sum(1 << v for v in s)
            looped, rows = _relabel(loops, adj, s, chosen)
            bits = sum(row << j * _STRIDE for j, row in enumerate(rows))
            flips = [1 << j * _STRIDE + i | 1 << i * _STRIDE + j for j, row in enumerate(rows)
                     for i in range(j) if (row >> i) & 1] if deletions else []
            sign = 0 if deletions and on_edge & ~chosen else (-1) ** (n - r)
            for g in range(1 << len(flips)):
                if g:
                    bits ^= flips[(g & -g).bit_length() - 1]
                    sign = -sign
                entry = acc.setdefault((r, _leaf_class(r, looped, bits)[0]), [0, 0])
                entry[0] += 1
                entry[1] += sign
    return tuple(sorted((_key(r, e), *counts) for (r, e), counts in acc.items()))


def _check_pair_limit(h: Graph, deletions: bool) -> None:
    """Refuse h when its walk, with or without deletions, would pass
    DSUB_PAIR_LIMIT leaves.  Call it before canonicalizing h, which is
    itself exponential in h's vertex count.  Each vertex subset is at least
    one leaf, so h is refused at once when 2^n alone passes the limit; that
    is the induced walk's whole count.  With deletions a leaf is a labeled
    deletion pair, and their exact total is summed until it passes."""
    if h.n >= DSUB_PAIR_LIMIT.bit_length() or (
        deletions and _deletion_pair_total(h, DSUB_PAIR_LIMIT) > DSUB_PAIR_LIMIT
    ):
        kind, leaves = ("deletion", "pairs") if deletions else ("induced", "vertex subsets")
        raise SizeLimitError(
            f"{kind}-subgraph enumeration would exceed {DSUB_PAIR_LIMIT} {leaves}"
        )


def dsub_downset(h: Graph) -> tuple[tuple[GraphKey, Graph, int], ...]:
    """All classes f with dsub(f, h) > 0, with those counts, in matrix order."""
    _check_pair_limit(h, True)
    return tuple((key, graph_from_key(key), copies)
                 for key, copies, _ in _walk(canonical_key(h), True))


def dsub_count(f: Graph, h: Graph) -> int:
    """Number of deletion subgraphs of h isomorphic to f.  h is refused, before
    f is keyed, when its deletion pairs pass DSUB_PAIR_LIMIT."""
    if f.size > h.size or f.n > h.n:
        return 0
    _check_pair_limit(h, True)
    kf = canonical_key(f)
    return next((copies for key, copies, _ in _walk(canonical_key(h), True) if key == kf), 0)


def _inverse_column(h: Graph, deletions: bool) -> CoeffVector:
    """The signed sums of h's walk, with or without deletions, by class."""
    _check_pair_limit(h, deletions)
    walk = _walk(canonical_key(h), deletions)
    return CoeffVector({k: (graph_from_key(k), c) for k, _, c in walk if c})


def dsub_inverse_column(h: Graph) -> CoeffVector:
    """Column of the inverse of the dsub matrix at h: the signed deletion
    subgraphs of h, aggregated by isomorphism class."""
    return _inverse_column(h, True)


def ind_inverse_column(h: Graph) -> CoeffVector:
    """Column of the inverse of the ind matrix at h: the induced subgraphs
    of h, signed by the number of deleted vertices and aggregated by
    isomorphism class.  Every copy of a class deletes as many vertices, so
    each entry's absolute value is ind(f, h).  h is refused, before it is
    canonicalized, when its 2^n vertex subsets pass DSUB_PAIR_LIMIT."""
    return _inverse_column(h, False)


def vsurj_via_inversion(g: Graph, h: Graph) -> int:
    """Vertex-surjective count as the signed sum of homomorphism counts into
    the induced subgraphs of h (sign by the number of deleted vertices)."""
    return sum(c * hom_count(g, rep) for _, rep, c in ind_inverse_column(h).items())


def vesurj_via_inversion(g: Graph, h: Graph) -> int:
    """Compaction count as the inverse-column-weighted sum of homomorphism
    counts into the deletion subgraphs of h."""
    return sum(c * hom_count(g, rep) for _, rep, c in dsub_inverse_column(h).items())


def verify_expansions(n_max: int) -> dict:
    """Replay both expansions for every ordered pair of classes up to n_max.

    Checks, per pair (g, h): the homomorphism count equals the sum of
    vertex-surjective counts over induced subgraphs of h, and equals the
    dsub-weighted sum of compaction counts; and both inversion routes agree
    with the brute-force counters.  Returns a report dict; the violations
    list is expected to stay empty.

    The pairs are entries of class tables: the surjective counters run once
    per ordered pair of canonical representatives and hom once per pair of
    connected classes, and each target's induced, signed induced, downset
    and inverse columns are built once and mapped to class indices.  Every
    identity at a target is checked for all sources at once, as an exact
    combination of packed table columns; violations are listed by source,
    target and identity, in that order.  n_max above VERIFY_MAX_VERTICES is
    refused before any class is enumerated.
    """
    return _expansions(n_max)[0]


def _expansions(n_max: int):
    """verify_expansions' report, the index of each class of
    enumerate_graphs(n_max) by key, and the hom, vsurj and vesurj tables
    the report checked, rows by source and columns by target in that
    index, so that verify reads every class pair's counts from one pass.
    Each target's columns come from its two walks, read by the keys
    enumerate_graphs holds, with no key search on the representative
    first; VERIFY_MAX_VERTICES bounds every walk."""
    if n_max > VERIFY_MAX_VERTICES:
        raise SizeLimitError(
            f"verify is limited to {VERIFY_MAX_VERTICES} vertices; the tables for "
            f"{n_max} would take over an hour"
        )
    classes = enumerate_graphs(n_max)
    index = {key: i for i, (key, _) in enumerate(classes)}
    reps = [rep for _, rep in classes]
    hom = hom_table(classes)
    vsurj = [[vsurj_count(g, h) for h in reps] for g in reps]
    vesurj = [[vesurj_count(g, h) for h in reps] for g in reps]

    signed, ind, down, inv = [], [], [], []
    for key, _ in classes:
        induced, deletion = _walk(key, False), _walk(key, True)
        signed.append([(index[k], c) for k, _, c in induced])
        ind.append([(index[k], copies) for k, copies, _ in induced])
        down.append([(index[k], copies) for k, copies, _ in deletion])
        inv.append([(index[k], c) for k, _, c in deletion if c])

    # Each table column packed into one integer, entry i in slot i of
    # `width` bytes.  At every source, |left| + |right| <= top * (weight + 1)
    # < 2^(8 width), so each slot of the difference of two packed sides
    # lies strictly between -2^(8 width) and 2^(8 width): the packed sides
    # are equal exactly when every slot is.
    tables = (hom, vsurj, vesurj)
    top = max(abs(x) for table in tables for row in table for x in row)
    weight = max(sum(abs(c) for _, c in col) for cols in (ind, down, signed, inv) for col in cols)
    width = (top * (weight + 1)).bit_length() // 8 + 1
    hom_p, vsurj_p, vesurj_p = ([_pack(col, width) for col in zip(*table)] for table in tables)
    # (identity, left table, its packed columns, right table, its packed
    # columns, coefficient columns) in report order.
    identities = (
        ("hom = sum of vsurj over induced subgraphs", hom, hom_p, vsurj, vsurj_p, ind),
        ("hom = dsub-weighted sum of vesurj", hom, hom_p, vesurj, vesurj_p, down),
        ("vsurj = signed hom sum", vsurj, vsurj_p, hom, hom_p, signed),
        ("vesurj = inverse-column hom sum", vesurj, vesurj_p, hom, hom_p, inv),
    )
    # (source index, target index, identity index, identity, left, right)
    found = []
    for j in range(len(reps)):
        for order, (name, left, left_p, right, right_p, cols) in enumerate(identities):
            column = cols[j]
            if left_p[j] == sum(c * right_p[f] for f, c in column):
                continue
            for i, row in enumerate(right):
                total = sum(c * row[f] for f, c in column)
                if total != left[i][j]:
                    found.append((i, j, order, name, left[i][j], total))
    found.sort(key=lambda v: v[:3])
    violations = [
        {
            "identity": name,
            "g": to_text(reps[i]),
            "h": to_text(reps[j]),
            "left": str(left),
            "right": str(right),
        }
        for i, j, _, name, left, right in found
    ]
    pairs = len(reps) ** 2
    report = {
        "n_max": n_max,
        "classes": len(classes),
        "pairs": pairs,
        "checks": 4 * pairs,
        "violations": violations,
    }
    return report, index, hom, vsurj, vesurj


def _pack(column, width: int) -> int:
    """sum of column[i] * 2^(8 width i), exactly, for entries of either sign
    below 2^(8 width) in absolute value."""
    if min(column) < 0:
        return (_pack([max(x, 0) for x in column], width)
                - _pack([max(-x, 0) for x in column], width))
    return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in column]), "little")
