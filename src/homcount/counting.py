"""Exact counts of homomorphisms, their surjective refinements, and automorphisms.

A homomorphism maps vertices so that a non-loop edge lands on an edge when
its endpoints stay distinct and on a loop when they collapse, and so that
loops land on loops.  vsurj_count restricts to maps whose image covers
every target vertex; vesurj_count additionally requires every non-loop
target edge to be the image of some source edge (loops need not be
covered).  The three map counters run one dynamic program over the
source's vertices (kernels.count_maps): it keeps only maps that respect
every edge placed so far and, for the surjective counters, what of the
target they cover, so it counts surjective maps directly.  aut_count reads
the automorphism count off the canonical-key search (kernels.min_encoding),
whose least vertex orders form one coset of the automorphism group.

hom_table fills the hom counts between the members of a set of classes
from the counts between the classes of their connected components, since
hom is multiplicative over the source's components and, for a connected
source, additive over the target's components.
"""

from __future__ import annotations

from . import kernels
from .canonical import _min_encoding, canonical_form
from .graphs import Graph, component_vertex_sets, induced_subgraph


def hom_count(g: Graph, h: Graph) -> int:
    """Number of homomorphisms from g to h."""
    return kernels.count_maps(g, h, kernels.MODE_HOM)


def vsurj_count(g: Graph, h: Graph) -> int:
    """Number of homomorphisms from g onto all of h's vertices."""
    return kernels.count_maps(g, h, kernels.MODE_VSURJ)


def vesurj_count(g: Graph, h: Graph) -> int:
    """Number of compactions: vertex-surjective homomorphisms covering every
    non-loop edge of h."""
    return kernels.count_maps(g, h, kernels.MODE_VESURJ)


def aut_count(h: Graph) -> int:
    """Number of automorphisms: permutations preserving loops, edges, and
    non-edges exactly."""
    return _min_encoding(h)[1]


def hom_table(members, columns=None) -> list[list[int]]:
    """hom(F, H) for F over the given (key, representative) pairs and H
    over those at the given positions (all by default): row i lists
    hom(member i, H) for H in columns' order.  Each key must be the
    canonical key of its representative.

    hom_count runs only from the classes of the members' connected
    components into those of the columns' members (a connected member is
    its own): hom(F1 + F2, H) = hom(F1, H) * hom(F2, H) for any F1, F2,
    and hom(F, H1 + H2) = hom(F, H1) + hom(F, H2) for connected F (Lovasz,
    Large Networks and Graph Limits, 2012).  The empty graph has no
    components, so its row is all ones and its column is zero except at
    itself.
    """
    # Component classes, and each member's components as indices into them.
    index = {}
    reps = []
    parts = []
    for key, rep in members:
        comps = component_vertex_sets(rep)
        forms = [(key, rep)] if len(comps) == 1 else [
            canonical_form(induced_subgraph(rep, comp)) for comp in comps
        ]
        for k, r in forms:
            if k not in index:
                index[k] = len(reps)
                reps.append(r)
        parts.append([index[k] for k, _ in forms])
    targets = parts if columns is None else [parts[j] for j in columns]
    into = {d for h_parts in targets for d in h_parts}
    # sums[c][j] = hom(c, column j's member), a sum over its components.
    sums = [[sum(hom_c[d] for d in h_parts) for h_parts in targets]
            for hom_c in ({d: hom_count(c, reps[d]) for d in into} for c in reps)]
    table = []
    for f_parts in parts:
        row = [1] * len(targets)
        for c in f_parts:
            row = [x * y for x, y in zip(row, sums[c])]
        table.append(row)
    return table
