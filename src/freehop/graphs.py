"""Bicoloured graphs and trees indexed by hyperedges.

A graph on white vertices 1..n (stored 0-indexed) is the multiset of its
hyperedges; a hyperedge is the multiset of white vertices a black vertex
connects to, stored as a sorted tuple.  Isomorphism with white labels fixed
is plain multiset equality, so enumeration canonicalizes by sorting.

The automorphism order factorizes over edge permutations fixing the
structure: repeated hyperedges can be swapped and, within one hyperedge,
parallel edges to the same white vertex can be swapped:

    #Aut = prod_{distinct J} m_J! * prod_I prod_i f_I(i)!
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial


Hyperedge = tuple[int, ...]  # sorted, possibly with repeats


class Graph(namedtuple("Graph", "n edges special", defaults=(-1,))):
    """n white vertices; edges, the sorted multiset of hyperedges; special,
    the index into edges of the special vertex, or -1."""

    __slots__ = ()

    def aut_order(self) -> int:
        counts: dict[Hyperedge, int] = {}
        for k, e in enumerate(self.edges):
            if k == self.special:
                continue  # the special vertex is distinguishable
            counts[e] = counts.get(e, 0) + 1
        a = 1
        for m in counts.values():
            a *= factorial(m)
        for k, e in enumerate(self.edges):
            mult: dict[int, int] = {}
            for i in e:
                mult[i] = mult.get(i, 0) + 1
            for f in mult.values():
                a *= factorial(f)
        return a

    def valencies(self) -> tuple[int, ...]:
        val = [0] * self.n
        for e in self.edges:
            for i in e:
                val[i] += 1
        return tuple(val)

    def excess(self) -> int:
        """sum_I (#I - 1) - (n - 1); zero exactly for trees."""
        return sum(len(e) - 1 for e in self.edges) - (self.n - 1)


def _hyperedge_pool(n: int, max_size: int) -> list[Hyperedge]:
    pool = []
    for size in range(2, max_size + 1):
        pool.extend(combinations_with_replacement(range(n), size))
    return pool


@lru_cache(maxsize=None)
def enumerate_graphs(n: int, excess_bound: int) -> tuple[Graph, ...]:
    """All connected bicoloured graphs with sum_I (#I - 1) <= n-1+excess,
    hyperedges of size >= 2, each isomorphism class once.

    For n = 1 the edgeless one-vertex graph is included (it is connected).
    At excess_bound 0 the output is exactly the trees G_{0,n}: n white
    vertices need sum_I (#I - 1) >= n - 1 to be connected, with equality
    only when every hyperedge is a plain subset joining distinct components.

    The search labels each vertex by its component under the hyperedges
    chosen so far and skips a hyperedge after which the components left,
    less one, exceed the budget left: a hyperedge of cost #I - 1 lowers the
    number of components by at most its cost, so nothing below it is
    connected within the budget.  That is the same test as the wasted cost,
    the cost spent beyond the joins made, exceeding excess_bound.  Only
    subtrees with no output are skipped, so the list and its order are
    those of the plain search that tests connectivity at every node.
    The result is kept for the process, as a tuple so no caller can change
    it.

    >>> [g.edges for g in enumerate_graphs(1, 1)]
    [(), ((0, 0),)]
    >>> g = enumerate_graphs(1, 1)[1]
    >>> g.aut_order()
    2
    """
    budget = n - 1 + excess_bound
    pool = _hyperedge_pool(n, max_size=budget + 1)
    out = []

    def rec(start: int, chosen: list[Hyperedge], used: int, label: list[int], comps: int):
        if (chosen or n == 1) and comps == 1:
            out.append(Graph(n, tuple(chosen)))
        room = budget - used
        for k in range(start, len(pool)):
            edge = pool[k]
            cost = len(edge) - 1
            if cost > room:
                break  # the pool is sorted by size
            roots = {label[i] for i in edge}
            left = comps - len(roots) + 1
            if left - 1 > room - cost:
                continue
            top = min(roots)
            chosen.append(edge)
            rec(k, chosen, used + cost, [top if x in roots else x for x in label], left)
            chosen.pop()

    rec(0, [], 0, list(range(n)), n)
    return tuple(out)


def enumerate_special_trees(n: int) -> list[Graph]:
    """The special trees G'_{0,n}: each tree T of G_{0,n} with one black
    vertex marked special.  That is either one of T's hyperedges, moved to
    the front, or a univalent black vertex (i,) added at a white vertex i.
    The special vertex is ``edges[0]`` (``special=0``).

    >>> [g.edges for g in enumerate_special_trees(2)]
    [((0, 1),), ((0,), (0, 1)), ((1,), (0, 1))]
    """
    out = []
    for tree in enumerate_graphs(n, 0):
        edges = tree.edges
        for k, sp in enumerate(edges):
            out.append(Graph(n, (sp,) + edges[:k] + edges[k + 1:], special=0))
        for i in range(n):
            out.append(Graph(n, ((i,),) + edges, special=0))
    return out
