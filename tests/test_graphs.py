import pytest

from freehop.graphs import Graph, _hyperedge_pool, enumerate_graphs, enumerate_special_trees


def is_connected(g):
    """Whether the hyperedges of g join all of its white vertices."""
    if g.n == 1:
        return True
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        for i in e[1:]:
            ri, r0 = find(i), find(e[0])
            if ri != r0:
                parent[max(ri, r0)] = min(ri, r0)
    return len({find(x) for x in range(g.n)}) == 1


def all_trees(n):
    return [g for g in enumerate_graphs(n, 0) if g.excess() == 0]


def test_four_trees_on_three_vertices():
    trees = all_trees(3)
    assert len(trees) == 4
    shapes = sorted(tuple(sorted(t.edges)) for t in trees)
    assert ((0, 1, 2),) in shapes
    assert (((0, 1), (0, 2))) in shapes


def test_single_tree_on_two_vertices():
    assert [t.edges for t in all_trees(2)] == [((0, 1),)]


def test_one_vertex_graphs():
    gs = enumerate_graphs(1, 1)
    by_edges = {g.edges: g for g in gs}
    assert () in by_edges
    doubled = by_edges[((0, 0),)]
    assert doubled.aut_order() == 2


def test_trees_have_trivial_automorphisms():
    for n in (2, 3, 4):
        for t in all_trees(n):
            assert t.aut_order() == 1


def test_aut_orders():
    assert Graph(2, ((0, 1), (0, 1))).aut_order() == 2
    assert Graph(2, ((0, 0, 1),)).aut_order() == 2
    assert Graph(1, ((0, 0), (0, 0))).aut_order() == 8  # 2! swaps * 2 * 2
    assert Graph(3, ((0, 1, 2),)).aut_order() == 1


def test_excess_bound_enumeration():
    # graphs on 2 vertices with sum(#I - 1) <= 2
    gs = enumerate_graphs(2, 1)
    edge_sets = {g.edges for g in gs}
    assert ((0, 1),) in edge_sets
    assert ((0, 1), (0, 1)) in edge_sets
    assert ((0, 0), (0, 1)) in edge_sets
    assert ((0, 0, 1),) in edge_sets
    assert all(is_connected(g) for g in gs)
    assert all(g.excess() <= 1 for g in gs)


def test_connectedness_filter():
    # {0,1} alone is disconnected for n = 3
    gs = enumerate_graphs(3, 0)
    assert all(is_connected(g) for g in gs)
    assert not any(g.edges == ((0, 1),) for g in gs)


def test_special_tree_counts():
    assert [len(enumerate_special_trees(n)) for n in (1, 2, 3, 4)] == [1, 3, 19, 189]


def test_special_trees_meet_the_definition():
    for n in (1, 2, 3, 4):
        seen = set()
        for g in enumerate_special_trees(n):
            sp, rest = g.edges[0], g.edges[1:]
            assert g.special == 0
            assert len(sp) >= 1 and len(set(sp)) == len(sp)
            assert all(len(I) >= 2 and len(set(I)) == len(I) for I in rest)
            assert sum(len(I) - 1 for I in g.edges) == n - 1
            assert is_connected(g)
            assert g.aut_order() == 1
            key = (sp, tuple(sorted(rest)))
            assert key not in seen
            seen.add(key)


def test_special_trees():
    # n = 1: only the univalent special vertex
    assert [g.edges for g in enumerate_special_trees(1)] == [((0,),)]
    # n = 2: the marked edge {0, 1}, or a univalent special vertex at 0 or 1
    seen = enumerate_special_trees(2)
    shapes = sorted(tuple(g.edges) for g in seen)
    assert shapes == [((0,), (0, 1)), ((0, 1),), ((1,), (0, 1))]
    for g in seen:
        assert g.special == 0


def _plain_enumeration(n, excess_bound):
    """The search without pruning: every multiset of pool hyperedges within
    the budget, kept when it is connected."""
    budget = n - 1 + excess_bound
    pool = _hyperedge_pool(n, max_size=budget + 1)
    out = []

    def rec(start, chosen, used):
        g = Graph(n, tuple(chosen))
        if (chosen or n == 1) and is_connected(g):
            out.append(g)
        for k in range(start, len(pool)):
            cost = len(pool[k]) - 1
            if used + cost <= budget:
                chosen.append(pool[k])
                rec(k, chosen, used + cost)
                chosen.pop()

    rec(0, [], 0)
    return tuple(out)


@pytest.mark.parametrize("n,e", [(n, e) for n in (1, 2, 3, 4) for e in (0, 1, 2)] + [(5, 0)])
def test_pruned_enumeration_equals_connectivity_filter(n, e):
    # the pruning skips only subtrees without output: same list, same order
    assert enumerate_graphs(n, e) == _plain_enumeration(n, e)


def test_tree_counts_are_labelled_hypertrees():
    # OEIS A030019
    assert [len(enumerate_graphs(n, 0)) for n in (1, 2, 3, 4, 5, 6)] == [1, 1, 4, 29, 311, 4447]


def test_memoised_enumeration_equals_a_fresh_one():
    for n in (1, 2, 3, 4, 5):
        for e in (0, 1, 2):
            kept = enumerate_graphs(n, e)
            assert type(kept) is tuple and enumerate_graphs(n, e) is kept
            assert kept == enumerate_graphs.__wrapped__(n, e)
    enumerate_graphs.cache_clear()  # (5, 2) keeps 74463 graphs


def test_graph_is_a_slotted_tuple():
    g = Graph(2, ((0, 1),))
    assert g == Graph(2, ((0, 1),), -1) and g.special == -1
    assert hash(g) == hash(Graph(2, ((0, 1),), special=-1))
    assert repr(g) == "Graph(n=2, edges=((0, 1),), special=-1)"
    assert not hasattr(g, "__dict__")
