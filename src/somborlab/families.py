"""Deterministic constructors for named graph families and recipe-built two-trees.

A two-tree recipe is the construction trace itself: starting from a single
edge, step ``t`` picks the index (in insertion order) of an existing edge
and glues a new vertex onto both of its endpoints.  Every two-tree arises
from some recipe, and every recipe yields a two-tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import MAX_ORDER, CapacityError, Graph


@dataclass(frozen=True)
class TwoTreeRecipe:
    """Ordered edge choices; step ``t`` (1-based) must pick an index below ``2t - 1``."""

    steps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for t, choice in enumerate(self.steps, start=1):
            if not 0 <= choice < 2 * t - 1:
                raise ValueError(
                    f"step {t} picks edge {choice}, but only {2 * t - 1} edges exist"
                )
        if self.order > MAX_ORDER:
            raise CapacityError(f"recipe order {self.order} exceeds capacity {MAX_ORDER}")

    @property
    def order(self) -> int:
        return len(self.steps) + 2

    @classmethod
    def parse(cls, text: str) -> "TwoTreeRecipe":
        """Parse the comma-separated form used in CLI arguments and JSON."""
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(part) for part in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.steps)


def from_recipe(recipe: TwoTreeRecipe) -> Graph:
    """Replay a construction trace into a two-tree of order ``len(steps) + 2``."""
    rows = [0] * recipe.order
    rows[0], rows[1] = 0b10, 0b01
    edges = [(0, 1)]
    for w, choice in enumerate(recipe.steps, start=2):
        a, b = edges[choice]
        rows[a] |= 1 << w
        rows[b] |= 1 << w
        rows[w] = 1 << a | 1 << b
        edges += (a, w), (b, w)
    return Graph._from_rows(rows)


def attach(g: Graph, u: int, v: int) -> Graph:
    """One growth step: a new vertex adjacent to both endpoints of edge ``uv``."""
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge; a two-tree step needs one")
    child = Graph(g.order + 1)
    for a, b in g.edges():
        child.add_edge(a, b)
    child.add_edge(u, g.order)
    child.add_edge(v, g.order)
    return child


def random_recipe(order: int, rng: random.Random) -> TwoTreeRecipe:
    """Uniformly random edge choice at every step (not uniform over graphs)."""
    if order < 2:
        raise ValueError(f"a two-tree has order at least 2, got {order}")
    if order > MAX_ORDER:  # before drawing, so a refused order costs no steps
        raise CapacityError(f"recipe order {order} exceeds capacity {MAX_ORDER}")
    return TwoTreeRecipe(tuple(rng.randrange(2 * t - 1) for t in range(1, order - 1)))


def complete(n: int) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"both parts need at least one vertex, got ({a}, {b})")
    g = Graph(a + b)
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    return g


def x_graph(n: int) -> Graph:
    """The book-like two-tree: two hubs joined to each other and to ``n - 2`` leaves.

    Hubs get degree ``n - 1``, every other vertex degree 2.  By convention
    the family starts at a single edge (order 2) and the triangle (order 3).
    """
    if n < 2:
        raise ValueError(f"x_graph needs order >= 2, got {n}")
    g = Graph(n)
    g.add_edge(0, 1)
    for v in range(2, n):
        g.add_edge(0, v)
        g.add_edge(1, v)
    return g


def l_graph(n: int) -> Graph:
    """The second-extremal family: one extra vertex glued onto a hub-leaf edge.

    Built from the order ``n - 1`` book by attaching a new vertex to hub 0
    and leaf 2 (all hub/leaf choices give isomorphic results; fixed ids keep
    the output reproducible).  Degree sequence ``(n-1, n-2, 3, 2, ..., 2)``.
    """
    if n < 5:
        raise ValueError(f"l_graph needs order >= 5, got {n}")
    return attach(x_graph(n - 1), 0, 2)


def linear_two_tree(n: int) -> Graph:
    """Path-like two-tree with edges ``v_i v_{i+1}`` and ``v_i v_{i+2}``.

    Degree pattern ``2, 3, 4, ..., 4, 3, 2``.  Included as a documented
    candidate family for the open extremes, not as a settled answer.
    """
    if n < 3:
        raise ValueError(f"linear_two_tree needs order >= 3, got {n}")
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    for i in range(n - 2):
        g.add_edge(i, i + 2)
    return g
