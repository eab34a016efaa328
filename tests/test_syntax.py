"""Shortest-dependency-path extraction against independent oracles."""

import random

import pytest

from ssdpsem import syntax
from ssdpsem.corpus import ROOT, Instance

from conftest import chain_instance


def random_tree_instance(rng, n):
    """Random labeled tree: each token's head drawn among lower indices."""
    heads = [ROOT] + [rng.randrange(i) for i in range(1, n)]
    subj = rng.randrange(n)
    obj = rng.randrange(n)
    while obj == subj and n > 1:
        obj = rng.randrange(n)
    return (
        Instance(id="t", tokens=tuple(f"w{i}" for i in range(n)), heads=tuple(heads),
                 deprels=("root",) + ("dep",) * (n - 1), subj=(0, 0), obj=(0, 0),
                 relation="r"),
        subj,
        obj,
    )


def bfs_oracle_distance(graph, s, o):
    """Plain breadth-first distance, written independently of extract_sdp."""
    if s == o:
        return 0
    frontier = {s}
    seen = {s}
    dist = 0
    while frontier:
        dist += 1
        nxt = set()
        for u in frontier:
            for v in graph[u]:
                if v == o:
                    return dist
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return None


def lca_path_oracle(heads, s, o):
    """On a tree the unique path goes through the lowest common ancestor,
    found by walking ``heads`` up from each endpoint."""

    def ancestors(i):
        chain = [i]
        while heads[i] != ROOT:
            i = heads[i]
            chain.append(i)
        return chain

    up_s = ancestors(s)
    up_o = ancestors(o)
    o_set = {tok: depth for depth, tok in enumerate(up_o)}
    for depth_s, tok in enumerate(up_s):
        if tok in o_set:
            return up_s[: depth_s + 1] + up_o[: o_set[tok]][::-1]
    raise AssertionError("tree nodes must share the root ancestor")


def test_path_length_matches_bfs_oracle_on_500_random_trees():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randrange(2, 41)
        inst, s, o = random_tree_instance(rng, n)
        graph = syntax.build_graph(inst)
        result = syntax.extract_sdp(graph, s, o)
        expected = bfs_oracle_distance(graph, s, o)
        assert len(result.path) - 1 == expected


def test_path_equals_lca_oracle_on_trees():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(2, 41)
        inst, s, o = random_tree_instance(rng, n)
        graph = syntax.build_graph(inst)
        result = syntax.extract_sdp(graph, s, o)
        assert result.path == lca_path_oracle(inst.heads, s, o)


def test_path_runs_from_s_to_o_without_repeats_on_trees_and_forests():
    """On random trees and multi-root forests, with equal and disconnected
    endpoints among the pairs, the path starts at s, ends at o and visits
    no token twice; it falls back exactly when s and o are disconnected."""
    rng = random.Random(3)
    seen = {"equal": 0, "fallback": 0}
    for _ in range(1000):
        n = rng.randrange(1, 30)
        root_p = rng.choice((0.0, 0.1, 0.3))  # 0.0: a single tree
        heads = [ROOT] + [ROOT if rng.random() < root_p else rng.randrange(i)
                          for i in range(1, n)]
        inst = Instance(id="f", tokens=tuple(f"w{i}" for i in range(n)), heads=tuple(heads),
                        deprels=("dep",) * n, subj=(0, 0), obj=(0, 0), relation="r")
        graph = syntax.build_graph(inst)
        s, o = rng.randrange(n), rng.randrange(n)
        result = syntax.extract_sdp(graph, s, o)
        assert result.path[0] == s and result.path[-1] == o
        assert len(set(result.path)) == len(result.path)
        distance = bfs_oracle_distance(graph, s, o)
        assert result.fallback == (distance is None)
        if not result.fallback:
            assert len(result.path) - 1 == distance
        seen["equal"] += s == o
        seen["fallback"] += result.fallback
    assert seen["equal"] > 0 and seen["fallback"] > 0


def test_endpoint_symmetry():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(2, 30)
        inst, s, o = random_tree_instance(rng, n)
        graph = syntax.build_graph(inst)
        fwd = syntax.extract_sdp(graph, s, o)
        rev = syntax.extract_sdp(graph, o, s)
        assert sorted(fwd.path) == sorted(rev.path)


def test_degenerate_equal_endpoints():
    inst = chain_instance(5)
    graph = syntax.build_graph(inst)
    result = syntax.extract_sdp(graph, 2, 2)
    assert result.path == [2]
    assert not result.fallback


def test_chain_path_is_the_whole_chain():
    inst = chain_instance(6)
    graph = syntax.build_graph(inst)
    result = syntax.extract_sdp(graph, 0, 5)
    assert result.path == [0, 1, 2, 3, 4, 5]


def test_disconnected_fallback_keeps_endpoints():
    inst = Instance(id="frag2", tokens=("a", "b"), heads=(ROOT, ROOT),
                    deprels=("root", "root"), subj=(0, 0), obj=(1, 1),
                    relation="r", fragmented=True)
    graph = syntax.build_graph(inst)
    result = syntax.extract_sdp(graph, 0, 1)
    assert result.fallback
    assert result.path == [0, 1]


def test_endpoint_out_of_range():
    graph = syntax.build_graph(chain_instance(3))
    with pytest.raises(ValueError):
        syntax.extract_sdp(graph, 0, 7)


def test_entity_head_is_span_exit():
    # "the big company rose": span (0,2), only "company" (2) exits to 3
    tokens, heads, deprels = zip(
        ("the", 2, "det"),
        ("big", 2, "amod"),
        ("company", 3, "nsubj"),
        ("rose", ROOT, "root"),
    )
    inst = Instance(id="h", tokens=tokens, heads=heads, deprels=deprels, subj=(0, 2),
                    obj=(3, 3), relation="r")
    assert syntax.entity_head(inst, (0, 2)) == 2


def test_entity_head_tie_breaks_to_lowest_index():
    tokens, heads, deprels = zip(
        ("a", 3, "dep"),
        ("b", 3, "dep"),
        ("c", 3, "dep"),
        ("root", ROOT, "root"),
    )
    inst = Instance(id="tie", tokens=tokens, heads=heads, deprels=deprels, subj=(0, 1),
                    obj=(2, 2), relation="r")
    # both 0 and 1 exit the span (their head 3 is outside)
    assert syntax.entity_head(inst, (0, 1)) == 0


def test_figure_style_template_sdp_isolates_key_terms():
    # "Acme 's profit rose up from $ 5 million a year earlier"
    tokens, heads, deprels = zip(
        ("Acme", 2, "nmod:poss"),
        ("'s", 0, "case"),
        ("profit", 3, "nsubj"),
        ("rose", ROOT, "root"),
        ("up", 3, "compound:prt"),
        ("from", 8, "case"),
        ("$", 8, "symbol"),
        ("5", 8, "nummod"),
        ("million", 3, "obl"),
        ("a", 10, "det"),
        ("year", 3, "obl:npmod"),
        ("earlier", 3, "advmod"),
    )
    inst = Instance(id="fig", tokens=tokens, heads=heads, deprels=deprels, subj=(0, 0),
                    obj=(6, 8), relation="profit_of")
    result = syntax.sdp_for_instance(inst)
    surfaces = {tokens[i] for i in result.path}
    assert {"Acme", "profit", "rose", "million"} <= surfaces
    for filler in ("'s", "up", "from", "a", "year", "earlier", "$"):
        assert filler not in surfaces


def test_sdp_for_instance_uses_fallback_on_fragments():
    inst = Instance(id="f3", tokens=("a", "b", "c"), heads=(ROOT, 0, ROOT),
                    deprels=("root", "dep", "root"), subj=(0, 0), obj=(2, 2),
                    relation="r", fragmented=True)
    result = syntax.sdp_for_instance(inst)
    assert result.fallback
    assert result.path == [0, 2]
