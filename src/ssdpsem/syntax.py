"""Dependency graph construction and shortest-dependency-path extraction.

Head links are viewed as undirected edges so a path between the two entity
heads may pass through the root.  All tie-breaking is deterministic:
neighbors are visited in increasing index order, which yields the
lexicographically smallest shortest path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .corpus import ROOT, Instance


@dataclass
class SdpResult:
    path: list[int]  # ordered token indices from subj head to obj head
    fallback: bool = False  # True when endpoints were disconnected


def build_graph(instance: Instance) -> list[list[int]]:
    """The undirected dependency graph: one sorted neighbor list per token."""
    graph = [[] for _ in instance.tokens]
    for index, head in enumerate(instance.heads):
        if head == ROOT:
            continue
        graph[index].append(head)
        graph[head].append(index)
    for neighbors in graph:
        neighbors.sort()
    return graph


def entity_head(instance: Instance, span: tuple[int, int]) -> int:
    """Anchor token of a span: the one whose parent lies outside the span.

    Several such tokens (fragments) resolve to the lowest index; a span with
    no exiting head (degenerate cycle inside a fragment) also falls back to
    its lowest index.
    """
    lo, hi = span
    exits = [
        index
        for index, head in enumerate(instance.heads[lo : hi + 1], lo)
        if head == ROOT or not lo <= head <= hi
    ]
    return exits[0] if exits else lo


def extract_sdp(graph: list[list[int]], s: int, o: int) -> SdpResult:
    """BFS shortest path between entity head tokens on the undirected graph
    that ``build_graph`` returns.

    Disconnected endpoints (a fragmented graph) give the two endpoints as
    the path, flagged as a fallback.
    """
    n = len(graph)
    if not (0 <= s < n and 0 <= o < n):
        raise ValueError(f"endpoint out of range: s={s}, o={o}, n={n}")
    parent = {s: None}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == o:
            break
        for v in graph[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    if o not in parent:
        return SdpResult(path=[s, o], fallback=True)
    path = []
    node = o
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()
    return SdpResult(path=path)


def sdp_for_instance(instance: Instance) -> SdpResult:
    """The SDP between the entity anchors, with fragment fallback; its path
    starts at the subject's anchor and ends at the object's."""
    return extract_sdp(build_graph(instance), entity_head(instance, instance.subj),
                       entity_head(instance, instance.obj))
