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
"""

from __future__ import annotations

from . import kernels
from .graphs import Graph, adjacency_masks


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
    loop_flags = [1 if v in h.loops else 0 for v in range(h.n)]
    return kernels.min_encoding(h.n, loop_flags, adjacency_masks(h))[1]
