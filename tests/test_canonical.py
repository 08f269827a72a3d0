import random
import time

import pytest

from homcount import canonical, kernels
from homcount.canonical import (
    CANONICAL_CACHE_SIZE,
    GraphKey,
    are_isomorphic,
    canonical_form,
    canonical_key,
    enumerate_graphs,
    graph_from_key,
)
from homcount.errors import SizeLimitError
from homcount.graphs import (
    Graph,
    adjacency_masks,
    biclique,
    complete_graph,
    cycle_graph,
    loops_mask,
    to_text,
)
from homcount.interpolation import image_encodings

from .conftest import random_graph, relabel
from .oracles import (
    naive_all_graphs,
    naive_aut,
    naive_classes,
    naive_isomorphic,
    naive_min_encoding,
)


def test_key_matches_naive_iso_exhaustively_small():
    for n in range(4):
        graphs = list(naive_all_graphs(n))
        keys = [canonical_key(g) for g in graphs]
        for i, g in enumerate(graphs):
            for j in range(i, len(graphs)):
                assert (keys[i] == keys[j]) == naive_isomorphic(g, graphs[j])


def test_key_matches_naive_iso_sampled_n4():
    rng = random.Random(40)
    graphs = list(naive_all_graphs(4))
    for _ in range(300):
        g, h = rng.choice(graphs), rng.choice(graphs)
        assert (canonical_key(g) == canonical_key(h)) == naive_isomorphic(g, h)


def test_key_invariant_under_relabeling():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(0, 5)
        loops = frozenset(v for v in range(n) if rng.random() < 0.4)
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        g = Graph(n, loops, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(relabel(g, perm))


def _masks(g):
    loops = sum(1 << v for v in g.loops)
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return g.n, loops, adj


def test_loopless_first_search_matches_min_over_all_permutations():
    rng = random.Random(42)
    cases = list(naive_all_graphs(3))
    for _ in range(120):
        n = rng.randint(4, 5)
        loops = frozenset(v for v in range(n) if rng.random() < 0.4)
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        cases.append(Graph(n, loops, edges))
    for g in cases:
        assert kernels.min_encoding(*_masks(g))[0] == naive_min_encoding(g), g


def _shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _random_regular(rng, n, d, n_loops):
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == n * d // 2:
            return Graph(n, rng.sample(range(n), n_loops), edges)


def test_min_encoding_matches_naive_oracle():
    rng = random.Random(44)
    cases = [_shuffled(rng, rep) for _, rep in enumerate_graphs(5)]
    cases += [random_graph(rng, 7, n_min=6) for _ in range(30)]
    cases += [_random_regular(rng, 8, 3, 3) for _ in range(3)]
    for g in cases:
        assert kernels.min_encoding(*_masks(g)) == (naive_min_encoding(g), naive_aut(g)), g


def test_leaf_memo_keys_packed_20_vertex_leaves_like_the_search():
    # The subgraph walks admit leaves of 20 vertices, whose packed rows use
    # every bit of their stride: here vertex 19 has neighbours, so their
    # rows set bit 19.  Keyed cold, then from the memo.
    rng = random.Random(46)
    shuffled = random_graph(rng, 20, n_min=20)
    shuffled = Graph(20, shuffled.loops, shuffled.edges | {(0, 19)})
    canonical._leaf_class.cache_clear()
    for g in (biclique(19, 1), Graph(20, [0, 19], cycle_graph(20).edges), shuffled):
        n, loops, adj = _masks(g)
        assert n == 20 and any((row >> 19) & 1 for row in adj)
        bits = sum(row << v * canonical._STRIDE for v, row in enumerate(adj))
        for _ in range(2):
            assert canonical._leaf_class(n, loops, bits) == kernels.min_encoding(n, loops, adj), g
    assert canonical._leaf_class.cache_info().hits == 3


def _union(graphs):
    n, loops, edges = 0, [], []
    for g in graphs:
        loops += [v + n for v in g.loops]
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return Graph(n, loops, edges)


def test_key_invariant_on_symmetric_graphs():
    rng = random.Random(45)
    cube = Graph(16, edges=[(u, u ^ b) for u in range(16) for b in (1, 2, 4, 8) if u < u ^ b])
    petersen = Graph(10, edges=[(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    half_looped = Graph(8, range(4), biclique(4, 4).edges)
    for g in (cycle_graph(12), cube, petersen, _union([complete_graph(3)] * 6), half_looped):
        key, rep = canonical_form(g)
        assert canonical_form(rep)[1] == rep
        for _ in range(5):
            assert canonical_key(_shuffled(rng, g)) == key


def test_canonical_form_cache_is_bounded():
    bound = CANONICAL_CACHE_SIZE
    canonical_form.cache_clear()
    for i, g in enumerate(naive_all_graphs(5)):
        if i > bound + 100:
            break
        canonical_form(g)
        assert canonical_form.cache_info().currsize <= bound
    assert canonical_form.cache_info().currsize == bound


def test_canonical_form_returns_isomorphic_representative():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(0, 4)
        loops = frozenset(v for v in range(n) if rng.random() < 0.3)
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        g = Graph(n, loops, edges)
        key, rep = canonical_form(g)
        assert naive_isomorphic(g, rep)
        assert canonical_key(rep) == key
        assert graph_from_key(key) == rep


def test_are_isomorphic_shortcuts_agree():
    assert are_isomorphic(Graph(2), Graph(2))
    assert not are_isomorphic(Graph(2), Graph(1))
    assert not are_isomorphic(
        Graph(1, loops=frozenset({0})), Graph(1)
    )


def test_key_ordering_is_size_major():
    k_small = canonical_key(Graph(2, edges=frozenset({(0, 1)})))
    k_big = canonical_key(Graph(2, loops=frozenset({0, 1}), edges=frozenset({(0, 1)})))
    assert k_small < k_big
    assert canonical_key(Graph(0)) < canonical_key(Graph(1))
    with pytest.raises(TypeError):
        _ = k_small < 3


def test_enumerate_counts_match_naive_classes():
    expected_new = {0: 1, 1: 2, 2: 6, 3: 20, 4: 90}
    for n, want in expected_new.items():
        assert len(naive_classes(naive_all_graphs(n))) == want
    # Partial sums of OEIS A000666, graphs with loops allowed.
    totals = [1, 3, 9, 29, 119, 663, 5759]
    for n, want in enumerate(totals):
        classes = enumerate_graphs(n)
        assert len(classes) == want
        assert len({key for key, _ in classes}) == want
        for key, rep in classes:
            assert canonical_key(rep) == key


def test_enumerate_is_sorted_and_exact_for_n2():
    classes = enumerate_graphs(2)
    keys = [key for key, _ in classes]
    assert keys == sorted(keys)
    assert len({key for key, _ in classes}) == 9
    reps = [rep for _, rep in classes]
    for i, g in enumerate(reps):
        for j in range(i + 1, len(reps)):
            assert not naive_isomorphic(g, reps[j])
    for g in naive_all_graphs(2):
        assert any(naive_isomorphic(g, rep) for rep in reps)


def test_enumerate_guardrails():
    with pytest.raises(ValueError):
        enumerate_graphs(-1)
    with pytest.raises(SizeLimitError):
        enumerate_graphs(7)


def test_graphkey_hex_roundtrips_through_bytes():
    key = canonical_key(Graph(3, edges=frozenset({(0, 1), (1, 2)})))
    assert isinstance(key, GraphKey)
    assert (key.size, key.n) == (5, 3)
    assert bytes.fromhex(key.hex()) == key.data


def _packed(n, enc):
    """A key's printed bytes, packed bit by bit: n in one byte, then the
    encoding's n + C(n, 2) bits from the highest, zero-padded to whole bytes."""
    m = n + n * (n - 1) // 2
    bits = "".join(str((enc >> k) & 1) for k in reversed(range(m))) + "0" * (-m % 8)
    return bytes([n] + [int(bits[i:i + 8], 2) for i in range(0, len(bits), 8)])


def test_key_order_and_printed_form_match_an_independent_packer():
    keys = [key for key, _ in enumerate_graphs(6)]
    assert len(keys) == 5759
    rng = random.Random(28)

    def encoding(n, ones):
        return sum(1 << b for b in rng.sample(range(n + n * (n - 1) // 2), ones))

    for _ in range(2000):
        n = rng.randint(0, 40)
        keys.append(canonical._key(n, encoding(n, rng.randint(0, n + n * (n - 1) // 2))))
    # Equal sizes on different vertex counts: n vertices, size - n bits.
    for size in range(25):
        for n in range(size + 1):
            if size - n <= n + n * (n - 1) // 2:
                keys.append(canonical._key(n, encoding(n, size - n)))
    for key in keys:
        packed = _packed(key.n, key.enc)
        assert key.size == key.n + bin(key.enc).count("1")
        assert key.data == packed and key.hex() == packed.hex()
        assert bytes.fromhex(key.hex()) == key.data
    assert sorted(keys) == sorted(keys, key=lambda k: (k.size, _packed(k.n, k.enc)))


def test_key_on_256_vertices_is_refused():
    assert canonical_key(Graph(255)).data[0] == 255
    with pytest.raises(SizeLimitError, match="at most 255 vertices"):
        canonical_key(Graph(256))
    # The refusal comes before the key search, which on a long cycle
    # explores every rotation and reflection of every tied branch.
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="at most 255 vertices"):
        canonical_key(cycle_graph(300))
    assert time.perf_counter() - start < 0.01


def _decode_bit_by_bit(n, enc):
    """The graph an encoding describes, read one bit at a time in the
    documented layout: loop bits by vertex, then pairs in row-major order."""
    k = n + n * (n - 1) // 2
    loops, edges = [], []
    for v in range(n):
        k -= 1
        if (enc >> k) & 1:
            loops.append(v)
    for i in range(n):
        for j in range(i + 1, n):
            k -= 1
            if (enc >> k) & 1:
                edges.append((i, j))
    return Graph(n, loops, edges)


def test_bit_table_readers_match_a_bit_by_bit_decode():
    encodings = [(key.n, kernels.min_encoding(*_masks(rep))[0])
                 for key, rep in enumerate_graphs(5)]
    rng = random.Random(97)
    for _ in range(30):
        g = random_graph(rng, 8, n_min=6)
        encodings += [(key.n, key.enc) for key, _, _ in image_encodings(g)]
    assert len(encodings) > 663 + 30
    for n, enc in encodings:
        want = _decode_bit_by_bit(n, enc)
        assert canonical._text(n, enc) == to_text(want)
        assert canonical._masks(n, enc) == (loops_mask(want), adjacency_masks(want))
        got = canonical._decode(n, enc)
        assert got == want
        # Same insertion order, so the frozensets iterate alike as well.
        assert repr(got) == repr(want)
