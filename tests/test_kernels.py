import homcount
from homcount import kernels
from homcount.counting import hom_count
from homcount.graphs import Graph, complete_graph, cycle_graph


def test_backend_name_is_pure():
    assert kernels.backend_name() == "pure"
    assert homcount.backend_name() == "pure"


def test_wide_target_counts_exactly():
    h = Graph(40, edges=frozenset({(0, 1)}))
    assert hom_count(complete_graph(2), h) == 2


def test_mode_constants_are_distinct():
    assert len({kernels.MODE_HOM, kernels.MODE_VSURJ, kernels.MODE_VESURJ}) == 3


def test_kernels_take_graphs():
    c5, k3 = cycle_graph(5), complete_graph(3)
    assert kernels.count_maps(c5, k3, kernels.MODE_HOM) == 30
    assert kernels.count_maps(c5, k3, kernels.MODE_VSURJ) == 30
    assert kernels.count_maps(c5, k3, kernels.MODE_VESURJ) == 30
    assert kernels.count_autos(c5) == 10
