"""graph6 and DOT serialization for :class:`~somborlab.graphs.Graph`.

The graph6 encoder is bit-exact against the published format definition:
an order field (one byte for orders up to 62, a ``~``-prefixed 18-bit field
above; an order past capacity is refused as soon as the field is read, so a
``~~``-prefixed 36-bit field always is) followed by the upper triangle of
the adjacency matrix in column order, packed into 6-bit printable
characters; the packing is the one
:mod:`somborlab.graphs` uses for canonical keys.  The decoder validates its
input and then hands it to :func:`~somborlab.graphs.graph_of_key`, the one
unchecked decoder that also turns canonical keys back into their graphs.
DOT output quotes the graph name, escaping backslashes and double quotes.
"""

from __future__ import annotations

from . import graphs
from .graphs import (
    CapacityError, Graph, _check_order, _graph6_order, _graph6_pack, _neighbor_lists,
    _ordered_columns, graph_of_key,
)

_HEADER = ">>graph6<<"


def to_graph6(g: Graph) -> str:
    """Encode ``g`` exactly as labeled (no canonicalization)."""
    columns = _ordered_columns(_neighbor_lists(g._rows), range(g.order))
    return _graph6_pack(g.order, columns).decode("ascii")


def from_graph6(text: str | bytes) -> Graph:
    """Decode a graph6 string, tolerating the optional ``>>graph6<<`` header."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):].strip()
    if not s:
        raise ValueError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise ValueError(f"invalid graph6 characters in {s!r}")
    if s[0] == "~" and len(s) < 4:  # '~' marker: 18-bit order
        raise ValueError("truncated graph6 order field")
    if s.startswith("~~"):  # '~~' marker: 36-bit order, at least 258048
        raise CapacityError(
            f"a '~~' graph6 order field holds an order past capacity {graphs.MAX_ORDER}")
    raw = s.encode("ascii")
    n, start = _graph6_order(raw)
    _check_order(n, 1, "graph6 order")
    groups = (n * (n - 1) // 2 + 5) // 6
    if len(raw) - start != groups:
        raise ValueError(
            f"graph6 body has {len(raw) - start} characters, expected {groups} for order {n}"
        )
    padding = 6 * groups - n * (n - 1) // 2
    if (raw[-1] - 63) & ((1 << padding) - 1):
        raise ValueError(f"graph6 padding bits of {s!r} are not zero")
    return graph_of_key(raw)


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT rendering with per-vertex degree labels.

    The name is written as a quoted DOT ID, with ``\\`` and ``"`` escaped
    as ``\\\\`` and ``\\"`` so that no name can close the quotes early.
    """
    quoted = name.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'graph "{quoted}" {{']
    for v in range(g.order):
        lines.append(f'  {v} [label="{v} (deg {g.degree(v)})"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
