"""Deterministic constructors for named graph families and recipe-built two-trees.

A two-tree recipe is the construction trace itself: starting from a single
edge ``(0, 1)`` (edge 0), step ``t`` picks the index (in insertion order) of
an existing edge and glues the new vertex ``t + 1`` onto both of its
endpoints, adding edges ``2t - 1`` and ``2t``.  Every two-tree arises from
some recipe, and every recipe yields a two-tree.

:func:`from_recipe` is the one way this module builds a two-tree; the named
families replay fixed recipes.  The book ``X_n`` picks edge 0 at every step,
``L_n`` is the book of order ``n - 1`` plus a last step on edge 1, ``(0, 2)``,
and the linear two-tree picks edge ``2t - 2``, the newest edge
``(t - 1, t)``, at step ``t``.  Every builder writes the adjacency rows
directly; none adds edges one at a time.  Each refuses an order past the
graph capacity through :func:`~somborlab.graphs._check_order` before it
lists a row or a recipe step, or draws one.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple

from .graphs import Graph, _check_order


# a NamedTuple may not define __new__ itself, so the recipe validates in a subclass
class _Steps(NamedTuple):
    steps: tuple[int, ...]


class TwoTreeRecipe(_Steps):
    """Ordered edge choices; step ``t`` (1-based) must pick an index below ``2t - 1``."""

    __slots__ = ()

    def __new__(cls, steps: Iterable[int]) -> "TwoTreeRecipe":
        steps = tuple(steps)
        for t, choice in enumerate(steps, start=1):
            if not 0 <= choice < 2 * t - 1:
                raise ValueError(
                    f"step {t} picks edge {choice}, but only {2 * t - 1} edges exist"
                )
        _check_order(len(steps) + 2, 2, "recipe order")
        return super().__new__(cls, steps)

    @classmethod
    def _make(cls, iterable: Iterable) -> "TwoTreeRecipe":
        # _replace (and copy.replace) build through _make, so they validate too
        return cls(*iterable)

    @property
    def order(self) -> int:
        return len(self.steps) + 2

    @classmethod
    def parse(cls, text: str) -> "TwoTreeRecipe":
        """Parse the comma-separated form used in CLI arguments and JSON."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            steps = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"recipe {text!r} is not a comma-separated list of integers") from None
        return cls(steps)

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
    rows = g._rows + [1 << u | 1 << v]
    rows[u] |= 1 << g.order
    rows[v] |= 1 << g.order
    return Graph._from_rows(rows)


def random_recipe(order: int, rng: random.Random) -> TwoTreeRecipe:
    """Uniformly random edge choice at every step (not uniform over graphs)."""
    if order < 2:
        raise ValueError(f"a two-tree has order at least 2, got {order}")
    _check_order(order, 2, "recipe order")
    return TwoTreeRecipe(tuple(rng.randrange(2 * t - 1) for t in range(1, order - 1)))


def complete(n: int) -> Graph:
    _check_order(n)
    return Graph._from_rows([((1 << n) - 1) ^ 1 << v for v in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"both parts need at least one vertex, got ({a}, {b})")
    _check_order(a + b)
    return Graph._from_rows([((1 << b) - 1) << a] * a + [(1 << a) - 1] * b)


def x_graph(n: int) -> Graph:
    """The book-like two-tree: two hubs joined to each other and to ``n - 2`` leaves.

    Hubs get degree ``n - 1``, every other vertex degree 2.  By convention
    the family starts at a single edge (order 2) and the triangle (order 3).
    Recipe: edge 0, the hub edge ``(0, 1)``, at every step.
    """
    if n < 2:
        raise ValueError(f"x_graph needs order >= 2, got {n}")
    _check_order(n, 2, "recipe order")
    return from_recipe(TwoTreeRecipe((0,) * (n - 2)))


def l_graph(n: int) -> Graph:
    """The second-extremal family: one extra vertex glued onto a hub-leaf edge.

    The order ``n - 1`` book with a new vertex attached to hub 0 and leaf 2
    (all hub/leaf choices give isomorphic results; fixed ids keep the output
    reproducible): recipe ``(0, ..., 0, 1)``, edge 1 being ``(0, 2)``.
    Degree sequence ``(n-1, n-2, 3, 2, ..., 2)``.
    """
    if n < 5:
        raise ValueError(f"l_graph needs order >= 5, got {n}")
    _check_order(n, 2, "recipe order")
    return from_recipe(TwoTreeRecipe((0,) * (n - 3) + (1,)))


def linear_two_tree(n: int) -> Graph:
    """Path-like two-tree with edges ``v_i v_{i+1}`` and ``v_i v_{i+2}``.

    Degree pattern ``2, 3, 4, ..., 4, 3, 2``.  Included as a documented
    candidate family for the open extremes, not as a settled answer.
    Recipe ``(0, 2, 4, ...)``: step ``t`` picks the newest edge ``(t - 1, t)``.
    """
    if n < 3:
        raise ValueError(f"linear_two_tree needs order >= 3, got {n}")
    _check_order(n, 2, "recipe order")
    return from_recipe(TwoTreeRecipe(tuple(range(0, 2 * n - 5, 2))))
