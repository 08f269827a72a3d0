"""Recovering homomorphism counts from an oracle for a weighted combination.

Suppose a counter f satisfies, for every source G,

    f(G) = sum over classes H of alpha(H) * hom(G, H)

for finitely supported integer coefficients alpha.  Both surjective
counters are of this form: the vertex-surjective counter via the signed
induced-subgraph coefficients, the compaction counter via an inverse
column of the deletion-subgraph matrix.  Querying f on disjoint unions
G + F for F ranging over a set S that is closed under homomorphic images
and contains the support of alpha gives the linear system

    f(G + F) = sum over H in S of hom(F, H) * (alpha(H) * hom(G, H)),

whose matrix M = hom(F, H) over S x S is invertible.  On a closed set it
factors as M = N U into triangular integer factors (Lovasz, Large
Networks and Graph Limits, 2012): N counts the set partitions of each
member by the class of their quotient, and U counts injective maps, with
the members' automorphism counts on its diagonal.  Solving the system
exactly and dividing the entry at a target by alpha(target) recovers
hom(G, target) from oracle access to f alone.  N is read off the walk
that finds the members' images.  The unknowns vanish off alpha's support
P, so the answers hold |S| - |P| spare equations that check the oracle:
_recover solves N c = b, peels U's columns at P off c, last first, and
raises on a count that is not a nonnegative integer or on a remainder.
Those columns are filled from hom counts between the classes of the
members' connected components (counting.hom_table), and checked to come
out triangular with the automorphism count on their diagonal, before the
first query; lovasz_matrix and the verify command, which reads M off its
expansions' class table, check every column.  The system depends only on
the counter and the target's class, so reduction_demo builds it once per
class and keeps it, with its support columns and its report's alpha and
closed_set entries.

Closed sets are unions of homomorphic images, which likewise depend only
on the input's class, so they are closed over classes given by their
keys, in one pass (_system) that also reads N and the automorphism
counts off the same walk: each member's images are walked once and keyed
once, and no member is searched.  closed_set keys each input graph once;
lovasz_matrix, build_system and verify pass the keys they hold.
image_encodings keeps each class's images, as keys with their partition
and automorphism counts, in a cache bounded by IMAGES_CACHE_SIZE, so
verify walks the set partitions of each class once.  The walk packs each
partial quotient into a few ints and keys every distinct labelled
quotient through canonical._leaf_class, the memo the subgraph walks
share: the same labelled quotient recurs across classes, and is searched
once while it stays in the memo.  The walk builds no Graph.
homomorphic_images decodes each image's key into a representative; the
images command and _system read the keys alone.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

from .canonical import (_ROW, _STRIDE, GraphKey, _key, _leaf_class, _masks, _min_encoding,
                        canonical_key, graph_from_key)
from .counting import hom_count, hom_table, vesurj_count, vsurj_count
from .errors import (
    InternalCheckError,
    OracleMismatchError,
    SingularSystemError,
    SizeLimitError,
)
from .exactsolve import _as_int, solve_unit_lower
from .families import _classify
from .graphs import Graph, delete_nonloop_edge, disjoint_union, to_text
from .inversion import CoeffVector, dsub_inverse_column, ind_inverse_column

QUOTIENT_MAX_VERTICES = 8
# Classes whose homomorphic images are kept, as keys with their partition
# and automorphism counts (about 160 bytes per image, by sys.getsizeof: 47 KB
# for an 8-vertex class with 290).
IMAGES_CACHE_SIZE = 128
SYSTEM_MAX_SIZE = 1024
# Systems kept by reduction_demo's cache, one per (mode, target class).
SYSTEM_CACHE_SIZE = 64
# Seconds one external oracle query may take before it counts as failed.
ORACLE_TIMEOUT_S = 60.0


def homomorphic_images(h: Graph) -> list[tuple[GraphKey, Graph]]:
    """Isomorphism classes of quotients of h, in matrix order.

    These are exactly the homomorphic images: any homomorphism factors as a
    quotient by its fibers followed by an embedding of the image.  The
    answer depends only on h's class and is read from image_encodings'
    cache; a repeated class costs one min_encoding plus one Graph per
    image.  Each call returns a new list.
    """
    return [(key, graph_from_key(key)) for key, _, _ in image_encodings(h)]


def image_encodings(h: Graph) -> tuple[tuple[GraphKey, int, int], ...]:
    """_image_encodings of h's class: (key, partitions, automorphisms) of
    each class of its homomorphic images, in matrix order.  The classes are
    kept per class of h, in a cache of IMAGES_CACHE_SIZE classes, so a
    repeated class costs one min_encoding.  The CLI prints images from
    these keys without building a Graph for any of them."""
    return _image_encodings(_class_of(h))


def _class_of(h: Graph) -> GraphKey:
    """h's key, from its least encoding with no Graph built.  h is refused
    before the search when quotient enumeration would refuse it."""
    _check_quotient_size(h.n)
    return _key(h.n, _min_encoding(h)[0])


def _check_quotient_size(n: int) -> None:
    if n > QUOTIENT_MAX_VERTICES:
        raise SizeLimitError(
            f"quotient enumeration is limited to {QUOTIENT_MAX_VERTICES} vertices"
        )


@lru_cache(maxsize=IMAGES_CACHE_SIZE)
def _image_encodings(key: GraphKey) -> tuple[tuple[GraphKey, int, int], ...]:
    """(key, partitions, automorphisms) of each class of quotients of the
    class key, in matrix order: partitions counts the set partitions whose
    quotient is in the class, and automorphisms is the class's own count.

    Set partitions are grown one vertex at a time, depth first on an
    explicit stack, with blocks indexed by their first member.  Each node
    packs its partial quotient into three ints: block count, loop mask, and
    adjacency bits with row b at bits b*_STRIDE on; the blocks of the
    placed vertices go into a fourth, _STRIDE bits apart.  Vertex v's
    lower-numbered neighbours are read once per node, as the mask of their
    blocks and the same blocks as a column; joining block b then loops b if
    one of them is in b and sets row b and column b to the others, a few
    int operations per child.
    Placing the last vertex gives exactly the quotient by the partition as
    (block count, loop mask, adjacency bits), which is counted rather than
    pushed; each distinct one is keyed by canonical._leaf_class, whose
    memo is shared by all walks, so a labelled quotient that recurs across
    classes is searched once; each class found is keyed once.
    """
    n = key.n
    if n == 0:
        return ((key, 1, 1),)
    h_loops, adj = _masks(n, key.enc)
    lower = [[u * _STRIDE for u in range(v) if (adj[v] >> u) & 1] for v in range(n)]
    last = n - 1
    quotients: dict[tuple[int, int, int], int] = {}
    # (next vertex, block of each placed vertex, block count, loop mask,
    # adjacency bits)
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        v, blocks, k, loops, bits = stack.pop()
        near = column = 0
        for shift in lower[v]:
            c = (blocks >> shift) & _ROW
            near |= 1 << c
            column |= 1 << c * _STRIDE
        looped = (h_loops >> v) & 1
        for b in range(k + 1):
            q_bits = bits | near << b * _STRIDE | column << b
            if (near >> b) & 1:
                # The diagonal bit both terms set stands for b's loop.
                q_bits ^= 1 << b * _STRIDE + b
                q_loops = loops | 1 << b
            else:
                q_loops = loops | looped << b
            q_k = k + 1 if b == k else k
            if v < last:
                stack.append((v + 1, blocks | b << v * _STRIDE, q_k, q_loops, q_bits))
            else:
                leaf = (q_k, q_loops, q_bits)
                quotients[leaf] = quotients.get(leaf, 0) + 1
    classes: dict[tuple[int, int], list[int]] = {}
    for (k, loops, bits), count in quotients.items():
        e, aut = _leaf_class(k, loops, bits)
        if (k, e) in classes:
            classes[k, e][0] += count
        else:
            classes[k, e] = [count, aut]
    return tuple(sorted((_key(k, e), c, a) for (k, e), (c, a) in classes.items()))


def closed_set(graphs) -> list[tuple[GraphKey, Graph]]:
    """Union of the homomorphic images of the given graphs, deduplicated and
    sorted in matrix order.  Each graph is keyed once, and refused before
    its key search when it is too large for quotient enumeration.  Closure
    is verified, not assumed: images of members must add nothing.  A union
    that passes SYSTEM_MAX_SIZE classes is refused as soon as it does,
    before the images of the remaining inputs or any member."""
    return _system(map(_class_of, graphs)).members


@dataclass
class LovaszSystem:
    """Closed set with the triangular factors M = N U of its
    homomorphism-count matrix (matrix order), and optionally the
    coefficients being inverted.

    lower holds N's entries below its unit diagonal, row by row, as
    (column, partition count) pairs; autos holds U's diagonal, the
    automorphism counts, and det = det M their product; _index maps each
    member's key to its position.  U's columns are kept as they are first
    needed, and so are the report entries reduction_demo renders for alpha
    and the members.
    """

    members: list[tuple[GraphKey, Graph]]
    det: int
    lower: list[list[tuple[int, int]]] = field(repr=False)
    autos: list[int] = field(repr=False)
    _index: dict = field(repr=False)
    alpha: CoeffVector | None = None
    _columns: dict = field(default_factory=dict, repr=False, compare=False)
    _support: list | None = field(default=None, repr=False, compare=False)
    _report: tuple | None = field(default=None, repr=False, compare=False)

    def index_of(self, key: GraphKey) -> int:
        if key not in self._index:
            raise ValueError("graph is not a member of the system")
        return self._index[key]

    def _fill(self, columns, table) -> None:
        """Check and keep U's columns at the given positions from the same
        columns of M, table (hom_table's rows).  U = N^-1 M by forward
        substitution over N's sparse rows.  M and N are computed
        independently, so each column coming out zero below its diagonal,
        with the images walk's automorphism count on it, checks both."""
        rows = []
        for m_row, below in zip(table, self.lower):
            for k, c in below:
                m_row = [a - c * b for a, b in zip(m_row, rows[k])]
            rows.append(m_row)
        filled = list(zip(columns, zip(*rows)))
        if any(any(col[j + 1:]) for j, col in filled):
            raise InternalCheckError("homomorphism matrix of a closed set has no upper "
                                     "triangular injective-count factor")
        diagonal = [col[j] for j, col in filled]
        if 0 in diagonal:
            raise SingularSystemError("homomorphism matrix of a closed set is singular")
        autos = [self.autos[j] for j in columns]
        if diagonal != autos:
            c = next(c for c, (d, a) in enumerate(zip(diagonal, autos)) if d != a)
            raise InternalCheckError(
                "homomorphism matrix of a closed set has determinant "
                f"{self.det // prod(autos) * prod(diagonal)}: member {columns[c]} has "
                f"{diagonal[c]} injective maps to itself, not its {autos[c]} automorphisms")
        self._columns.update((j, col[:j + 1]) for j, col in filled)

    def _support_columns(self) -> list[tuple[int, int, tuple]]:
        """(position, alpha's entry, U's column) over alpha's support, last
        first; the first call fills and checks the columns not yet kept."""
        if self._support is None:
            support = [(self.index_of(key), coeff) for key, _, coeff in self.alpha.items()]
            missing = [j for j, _ in support if j not in self._columns]
            if missing:
                self._fill(missing, hom_table(self.members, missing))
            self._support = [(j, coeff, self._columns[j]) for j, coeff in reversed(support)]
        return self._support


def _system(keys) -> LovaszSystem:
    """The closed set spanned by the classes given by their keys, with N
    and the automorphism counts read off the same images walk.  Every key
    is checked against QUOTIENT_MAX_VERTICES before any is walked, and the
    union of the inputs' images is refused as soon as it passes
    SYSTEM_MAX_SIZE.  Each member's images are walked once, as keys, so no
    member is searched, and each member is decoded once.

    Every homomorphism is a quotient by its fibers followed by an injective
    map, so M = N U with N[i][k] the number of set partitions of member i
    whose quotient is member k, and U[k][j] = inj(member k, member j)
    (ibid.).  A partition that merges vertices leaves fewer vertices and no
    more edges and loops, and an injective map needs at least as many of
    each, so in matrix order N is unit lower triangular and U upper
    triangular with the automorphism counts on its diagonal.  Closure and
    N's shape are checked, not assumed, on the members' keyed images; U's
    columns are left to LovaszSystem._fill.
    """
    keys = list(keys)
    for key in keys:
        _check_quotient_size(key.n)
    images, union = {}, set()
    for key in keys:
        images[key] = _image_encodings(key)
        union.update(image for image, _, _ in images[key])
        if len(union) > SYSTEM_MAX_SIZE:
            raise SizeLimitError(f"systems are limited to {SYSTEM_MAX_SIZE} members")
    images.update((key, _image_encodings(key)) for key in union.difference(images))
    order = sorted(union)
    position = {key: i for i, key in enumerate(order)}
    lower, autos = [], []
    for i, key in enumerate(order):
        below = []
        for image, partitions, aut in images[key]:
            j = position.get(image)
            if j is None:
                raise InternalCheckError("image closure failed to close")
            if j == i and partitions == 1:
                autos.append(aut)
            elif j < i:
                below.append((j, partitions))
            else:
                raise InternalCheckError(
                    "partition counts of a closed set are not unit lower triangular"
                )
        lower.append(below)
    members = [(key, graph_from_key(key)) for key in order]
    return LovaszSystem(members, prod(autos), lower, autos, position)


def lovasz_matrix(members) -> LovaszSystem:
    """Fill the homomorphism-count matrix over a closed set and check all
    of it against the triangular factors the system keeps.

    Accepts (key, rep) pairs, whose keys already hold the classes and are
    not searched again, or plain graphs, each keyed once; the input must
    already be closed under homomorphic images, so that its closure
    (closed_set's) adds no member, and contain no duplicate classes.  The
    matrix is invertible for closed sets: its determinant is the product of
    the members' automorphism counts, which the factors check.
    """
    keys = [_class_of(m) if isinstance(m, Graph) else m[0] for m in members]
    if len(set(keys)) < len(keys):
        raise ValueError("duplicate isomorphism class in the input set")
    system = _system(keys)
    if len(system.members) > len(keys):
        raise ValueError("input set is not closed under homomorphic images")
    system._fill(range(len(keys)), hom_table(system.members))
    return system


def alpha_for_vsurj(h: Graph) -> CoeffVector:
    """Coefficients expressing the vertex-surjective counter against h as a
    combination of plain homomorphism counters: each subset of h's vertices
    contributes its induced class, signed by the number of deleted
    vertices.  The entry at h itself is 1."""
    return ind_inverse_column(h)


def alpha_for_vesurj(h: Graph) -> CoeffVector:
    """Coefficients expressing the compaction counter against h: the inverse
    column of the deletion-subgraph matrix at h."""
    return dsub_inverse_column(h)


class CountingOracle:
    """In-process oracle for one of the two surjective counters."""

    def __init__(self, kind: str, h: Graph):
        if kind not in ("vsurj", "vesurj"):
            raise ValueError("kind must be 'vsurj' or 'vesurj'")
        self.kind = kind
        self.h = h
        self.calls = 0

    def eval(self, g: Graph) -> int:
        self.calls += 1
        counter = vsurj_count if self.kind == "vsurj" else vesurj_count
        return counter(g, self.h)


class ExternalCommandOracle:
    """Oracle that runs a command per query: the graph goes to its standard
    input in text format, the reply is one line holding a decimal count: an
    optional minus sign and ASCII digits, nothing else.  A query that runs
    longer than ORACLE_TIMEOUT_S seconds is killed."""

    def __init__(self, argv: list[str]):
        self.argv = list(argv)
        self.calls = 0

    def eval(self, g: Graph) -> int:
        self.calls += 1
        try:
            proc = subprocess.run(
                self.argv,
                input=to_text(g).encode(),
                capture_output=True,
                timeout=ORACLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"oracle command timed out after {ORACLE_TIMEOUT_S:g} s")
        if proc.returncode != 0:
            raise RuntimeError(
                f"oracle command failed with status {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}"
            )
        # The reply stays bytes: their isdigit() passes ASCII digits alone,
        # where int() of a str would also read "1_2" or Arabic-Indic digits.
        reply = proc.stdout.strip()
        if not (reply[1:] if reply.startswith(b"-") else reply).isdigit():
            raise RuntimeError(
                f"oracle reply is not a decimal integer: {reply.decode(errors='replace')!r}")
        return int(reply)


def build_system(alpha: CoeffVector) -> LovaszSystem:
    """Closed set spanning the support of alpha, with alpha attached.

    The support's keys already hold its classes, so no member is searched;
    _system verifies closure and reads N off the images it walked.  No
    hom count is made: U's columns are filled, and checked, when a
    recovery first needs them."""
    system = _system(alpha.support())
    if not set(alpha.support()) <= system._index.keys():
        raise InternalCheckError("closure lost part of the coefficient support")
    system.alpha = alpha
    return system


def _recover(system: LovaszSystem, oracle, g: Graph, keys) -> list[int]:
    """hom(g, target) for each target key, from one oracle query per member.

    The answers are b = M x, where x = alpha * hom(g, .) vanishes off
    alpha's support P.  With M = N U, c = N^-1 b by forward substitution;
    U is upper triangular, so peeling its columns at P from the last
    leaves U[j][j] x_j at c_j, then takes x_j times column j off c.  Each
    x_j must be exact and a nonnegative multiple of alpha(j), and nothing
    may be left of c, or the oracle does not match alpha.  An oracle that
    is honest for another coefficient vector whose support lies inside
    alpha's passes every check: in vesurj mode hom(., h) is one, and the
    hard-edge target then comes out 0 for C4 and K2,3 from P3 and C4.
    """
    if system.alpha is None:
        raise ValueError("system carries no coefficients")
    targets = []
    for key in keys:
        if system.alpha[key] == 0:
            raise ValueError("target lies outside the coefficient support")
        targets.append(system.index_of(key))
    support = system._support_columns()
    answers = []
    for i, (key, rep) in enumerate(system.members):
        answer = oracle.eval(disjoint_union(g, rep))
        try:
            answers.append(_as_int(answer))
        except ValueError:
            raise OracleMismatchError(f"oracle answered {answer!r}, not an integer, "
                                      f"for member {i} ({key.hex()})") from None
    c = solve_unit_lower(system.lower, answers)
    homs = {}
    for j, coeff, column in support:
        x, rest = divmod(c[j], column[j])
        homs[j], off = divmod(x, coeff)
        if rest or off or homs[j] < 0:
            raise OracleMismatchError(f"recovered value at member {j} is not a nonnegative "
                                      "integer; oracle and coefficients disagree")
        if x:
            c[:j + 1] = [a - x * u for a, u in zip(c, column)]
    if any(c):
        raise OracleMismatchError("oracle answers lie outside the span of the coefficients' "
                                  "columns; oracle and coefficients disagree")
    return [homs[t] for t in targets]


def recover_hom(system: LovaszSystem, oracle, g: Graph, target: GraphKey) -> int:
    """Recover hom(g, target) using exactly one oracle query per member.

    Solves the answers over alpha's support (see _recover), through N and
    U's columns there, which are filled and checked before the first query
    and kept; answers that do not match alpha raise OracleMismatchError,
    except those of an oracle honest for a coefficient vector whose support
    lies inside alpha's, which pass every check (see _recover).
    """
    return _recover(system, oracle, g, [target])[0]


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _reduction_system(mode: str, key: GraphKey) -> LovaszSystem:
    """Checked system, with its coefficients, for a mode and a target class."""
    alpha_for = alpha_for_vsurj if mode == "vsurj" else alpha_for_vesurj
    return build_system(alpha_for(graph_from_key(key)))


def reduction_demo(h: Graph, mode: str, g: Graph, oracle=None) -> dict:
    """End-to-end reduction: build the coefficients for the requested
    surjective counter against h, close the support, query the oracle, and
    recover plain homomorphism counts, reported next to ground truth.

    In vesurj mode, when h is in F but not in C, the hard-edge deletion is
    recovered as a second target.  All targets share one query set: the
    oracle is asked once per member of the closed set per call, whatever
    the number of targets.  The coefficients and the factored system
    depend only on the mode and h's isomorphism class, so they are built
    once per process and kept (up to SYSTEM_CACHE_SIZE of them), and so
    are the report's alpha and closed_set entries, rendered the first time
    the system is reported; each call returns new lists and dicts of them.
    h, g, the hard edge and the targets are taken from the inputs and
    rendered on every call.  h is a member of its own closed set, so a
    target too large for quotient enumeration is refused before any
    coefficient is built.
    """
    if mode not in ("vsurj", "vesurj"):
        raise ValueError("mode must be 'vsurj' or 'vesurj'")
    _check_quotient_size(h.n)
    if oracle is None:
        oracle = CountingOracle(mode, h)
    h_key = canonical_key(h)
    system = _reduction_system(mode, h_key)

    targets = [h_key]
    hard = _classify(h)[3] if mode == "vesurj" else None
    if hard:
        targets.append(canonical_key(delete_nonloop_edge(h, hard)))

    calls_before = getattr(oracle, "calls", None)
    recovered = _recover(system, oracle, g, targets)
    queries = None
    if calls_before is not None:
        queries = oracle.calls - calls_before

    reps = dict(system.members)
    target_reports = []
    for key, value in zip(targets, recovered):
        truth = hom_count(g, reps[key])
        target_reports.append(
            {
                "key": key.hex(),
                "graph": to_text(reps[key]),
                "recovered": str(value),
                "ground_truth": str(truth),
                "match": value == truth,
            }
        )

    if system._report is None:
        system._report = (system.alpha.to_json_entries(),
                          [{"key": key.hex(), "graph": to_text(rep)} for key, rep in system.members])
    alpha_entries, member_entries = system._report
    return {
        "mode": mode,
        "g": to_text(g),
        "h": to_text(h),
        "alpha": [dict(entry) for entry in alpha_entries],
        "closed_set": [dict(entry) for entry in member_entries],
        "det": str(system.det),
        "oracle_queries": queries,
        "hard_edge": list(hard) if hard else None,
        "targets": target_reports,
    }
