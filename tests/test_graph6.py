import itertools
import random

import networkx as nx
import pytest

from somborlab.families import complete, from_recipe, l_graph, linear_two_tree, random_recipe, x_graph
from somborlab.graph6 import from_graph6, to_dot, to_graph6
from somborlab.enumeration import enumerate_levels
from somborlab.graphs import (
    CapacityError, Graph, _graph6_order, _graph6_order_bytes, _graph6_pack, _graph6_rows,
    _neighbor_lists, _ordered_columns, are_isomorphic,
)


def test_k2_encodes_to_known_string():
    assert to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"


def test_small_fixed_encodings_match_networkx():
    cases = [
        Graph(1),
        Graph(2),
        Graph.from_edges(2, [(0, 1)]),
        complete(3),
        complete(5),
        x_graph(6),
        l_graph(7),
        linear_two_tree(9),
    ]
    for g in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(g.edges())
        assert to_graph6(g) == nx.to_graph6_bytes(h, header=False).decode().strip()


def test_random_two_trees_match_networkx_bit_exactly():
    rng = random.Random(23)
    for _ in range(60):
        g = from_recipe(random_recipe(rng.randrange(2, 20), rng))
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(g.edges())
        assert to_graph6(g) == nx.to_graph6_bytes(h, header=False).decode().strip()


def test_round_trip_is_labeled_identity():
    rng = random.Random(31)
    for _ in range(100):
        g = from_recipe(random_recipe(rng.randrange(2, 25), rng))
        back = from_graph6(to_graph6(g))
        assert back == g
        assert are_isomorphic(back, g)


def test_large_order_field():
    # orders 63 and 64 need the multi-byte order prefix
    for n in (63, 64):
        g = Graph(n)
        g.add_edge(0, n - 1)
        g.add_edge(1, 2)
        s = to_graph6(g)
        assert s.startswith("~")
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        assert s == nx.to_graph6_bytes(h, header=False).decode().strip()
        assert from_graph6(s) == g


def _random_graph(n: int, rng: random.Random) -> Graph:
    pairs = itertools.combinations(range(n), 2)
    return Graph.from_edges(n, [pair for pair in pairs if rng.random() < 0.5])


def test_decoder_round_trip_at_every_order():
    # orders 1..64 meet every padding residue of n(n-1)/2 mod 6 and both
    # order-field forms (one byte up to 62, the '~' prefix from 63)
    rng = random.Random(41)
    residues = set()
    for n in range(1, 65):
        residues.add(n * (n - 1) // 2 % 6)
        for g in (complete(n), _random_graph(n, rng)):
            text = to_graph6(g)
            assert text.startswith("~") == (n > 62)
            assert from_graph6(text) == g
            if n in (26, 37, 50, 62, 63, 64):
                h = nx.from_graph6_bytes(text.encode())
                assert sorted(h.nodes()) == list(range(n))
                assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges())
    assert residues == {0, 1, 3, 4}


def test_parse_accepts_header_and_rejects_garbage():
    assert from_graph6(">>graph6<<A_") == Graph.from_edges(2, [(0, 1)])
    assert from_graph6(b"A_\n") == Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError, match="^empty graph6 string$"):
        from_graph6("")
    with pytest.raises(ValueError, match="^graph6 body has 0 characters, expected 1 for order 2$"):
        from_graph6("A")  # truncated body
    with pytest.raises(ValueError, match=r"^invalid graph6 characters in '\\x19\\x19'$"):
        from_graph6("\x19\x19")  # characters outside the printable range
    with pytest.raises(ValueError, match="^graph6 order must be in 1..64, got 0$"):
        from_graph6("?")  # order 0
    with pytest.raises(ValueError, match="^truncated graph6 order field$"):
        from_graph6("~??")  # truncated 18-bit order field
    with pytest.raises(CapacityError, match="^a '~~' graph6 order field holds an order past capacity 64$"):
        from_graph6("~~??????")  # 36-bit order field: order 258048 at the least
    with pytest.raises(CapacityError, match="^graph6 order must be in 1..64, got 160$"):
        from_graph6("~?A_")  # 18-bit order field, refused before its body is measured
    with pytest.raises(ValueError, match="^graph6 padding bits of 'A@' are not zero$"):
        from_graph6("A@")  # the edgeless pair is A?
    with pytest.raises(ValueError, match="^graph6 padding bits of 'B~' are not zero$"):
        from_graph6("B~")  # the triangle is Bw


def test_parse_networkx_output_for_all_order_7_two_trees():
    from somborlab.enumeration import enumerate_two_trees

    for key in enumerate_two_trees(7).keys:
        g = from_graph6(key.decode("ascii"))
        h = nx.from_graph6_bytes(key)
        assert set(g.edges()) == set(h.edges())


def test_dot_output_lists_every_edge_with_degree_labels():
    dot = to_dot(x_graph(5), name="X_5")
    assert dot.count(" -- ") == 7
    assert '0 [label="0 (deg 4)"]' in dot
    assert '4 [label="4 (deg 2)"]' in dot
    assert dot.startswith('graph "X_5" {')


def _pack_by_shifts(order: int, columns: list[int]) -> bytes:
    # the bit-loop encoder binascii replaced, kept verbatim as the reference
    acc = 0
    nbits = 0
    for k in range(1, order):
        acc = acc << k | columns[k]
        nbits += k
    pad = -nbits % 6
    acc <<= pad
    nbits += pad
    body = bytearray()
    for shift in range(nbits - 6, -6, -6):
        body.append((acc >> shift & 63) + 63)
    return _graph6_order_bytes(order) + bytes(body)


def _rows_by_shifts(data: bytes) -> list[int]:
    # the bit-loop decoder binascii replaced, kept verbatim as the reference
    n, start = _graph6_order(data)
    body = data[start:]
    acc = 0
    for group in body:
        acc = acc << 6 | group - 63
    acc >>= 6 * len(body) - n * (n - 1) // 2
    rows = [0] * n
    for k in range(n - 1, 0, -1):  # the last column holds the lowest bits
        col = acc & ((1 << k) - 1)
        acc >>= k
        while col:  # bit p - 1 of column k is the pair (k - p, k)
            p = col.bit_length()
            col ^= 1 << (p - 1)
            rows[k - p] |= 1 << k
            rows[k] |= 1 << (k - p)
    return rows


def test_codec_matches_the_bit_loop_reference():
    rng = random.Random(43)
    graphs = [complete(n) for n in (1, 2, 63, 64)] + [Graph(n) for n in (1, 2, 63, 64)]
    for n in range(1, 65):
        for density in (0.1, 0.5, 0.9):
            pairs = itertools.combinations(range(n), 2)
            graphs.append(Graph.from_edges(n, [pair for pair in pairs if rng.random() < density]))
    keys = [key for level in enumerate_levels(10) for key in level.keys]
    for key in keys:
        assert _graph6_rows(key) == _rows_by_shifts(key)
    for g in graphs + [Graph._from_rows(_rows_by_shifts(key)) for key in keys]:
        columns = _ordered_columns(_neighbor_lists(g._rows), range(g.order))
        data = _graph6_pack(g.order, columns)
        assert data == _pack_by_shifts(g.order, columns)
        assert _graph6_rows(data) == _rows_by_shifts(data) == g._rows


def test_dot_name_is_escaped_inside_its_quotes():
    assert to_dot(Graph(1), name="C\\").splitlines()[0] == 'graph "C\\\\" {'
    assert to_dot(Graph(1), name='a"b').splitlines()[0] == 'graph "a\\"b" {'
