"""Exact counts of homomorphisms, their surjective refinements, and automorphisms.

A homomorphism maps vertices so that a non-loop edge lands on an edge when
its endpoints stay distinct and on a loop when they collapse, and so that
loops land on loops.  vsurj_count restricts to maps whose image covers
every target vertex; vesurj_count additionally requires every non-loop
target edge to be the image of some source edge (loops need not be
covered).  The three map counters run one backtracking kernel that prunes
by adjacency; the surjectivity filters apply to completed maps only.
aut_count runs its own kernel over permutations.
"""

from __future__ import annotations

from . import kernels
from .graphs import Graph


def _count(g: Graph, h: Graph, mode: int) -> int:
    if g.n == 0:
        return 1 if (mode == kernels.MODE_HOM or h.n == 0) else 0
    if h.n == 0:
        return 0
    if mode != kernels.MODE_HOM and g.n < h.n:
        return 0
    if mode == kernels.MODE_VESURJ and len(g.edges) < len(h.edges):
        return 0
    return kernels.count_maps(g, h, mode)


def hom_count(g: Graph, h: Graph) -> int:
    """Number of homomorphisms from g to h."""
    return _count(g, h, kernels.MODE_HOM)


def vsurj_count(g: Graph, h: Graph) -> int:
    """Number of homomorphisms from g onto all of h's vertices."""
    return _count(g, h, kernels.MODE_VSURJ)


def vesurj_count(g: Graph, h: Graph) -> int:
    """Number of compactions: vertex-surjective homomorphisms covering every
    non-loop edge of h."""
    return _count(g, h, kernels.MODE_VESURJ)


def aut_count(h: Graph) -> int:
    """Number of automorphisms: permutations preserving loops, edges, and
    non-edges exactly."""
    if h.n == 0:
        return 1
    return kernels.count_autos(h)
