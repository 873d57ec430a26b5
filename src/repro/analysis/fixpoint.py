"""The analyzer's one interprocedural propagation core.

Every whole-program question the rules ask is either "what holds of this
function once its callees are accounted for" or "what can be reached from
here, and by which path".  Three functions answer them:

* :func:`sccs` — strongly-connected components, callees first.  Used by
  :func:`solve`.
* :func:`solve` — a bottom-up monotone fixpoint over those components:
  each node's facts are its local facts plus whatever its callees' facts
  let through the caller's edge filter.  Used by effect inference
  (:class:`~repro.analysis.effects.EffectInference`, atom sets) and RES004
  (:mod:`~repro.analysis.exceptionflow`, "the family escapes").
* :func:`bfs` (with :func:`path_to`) — a deterministic breadth-first
  search with parent links.  Used for effect witnesses, RES004's exposure
  walk and witness chain, the value-flow taint search
  (:class:`~repro.analysis.dataflow.TaintEngine`), the class-hierarchy
  closure behind handler checks, and ``ProjectGraph``'s reachability
  queries.

Stdlib only, and deterministic: components, levels and fact sets never
depend on hash order.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

N = TypeVar("N", bound=Hashable)  # graph node
L = TypeVar("L")  # edge label
F = TypeVar("F", bound=Hashable)  # fact

#: ``parent[node]``: ``(predecessor, label of the edge taken)``; None for
#: a root.
Parents = Dict[N, Optional[Tuple[N, L]]]


def sccs(nodes: Iterable[N], succ: Mapping[N, Sequence[N]]) -> List[List[N]]:
    """Tarjan's algorithm, iterative and deterministic.

    Roots are taken in sorted order and each component comes out sorted;
    components are emitted callees-first (reverse topological order of
    the condensation), which is exactly the order a bottom-up pass wants.
    """
    index: Dict[N, int] = {}
    low: Dict[N, int] = {}
    on_stack: Set[N] = set()
    stack: List[N] = []
    out: List[List[N]] = []
    for root in sorted(nodes):
        if root in index:
            continue
        work: List[Tuple[N, int]] = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            children = succ.get(node, ())
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                if low[node] == index[node]:
                    comp: List[N] = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    out.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return out


def solve(
    nodes: Iterable[N],
    edges: Mapping[N, Sequence[Tuple[N, L]]],
    local: Callable[[N], Iterable[F]],
    keep: Optional[Callable[[L, F], bool]] = None,
) -> Dict[N, FrozenSet[F]]:
    """Least fixpoint: a node's facts are ``local(node)`` plus each fact
    ``f`` of each callee ``m`` on an edge ``(m, l)`` in ``edges[node]``
    for which ``keep(l, f)`` holds.

    Components are solved callees-first; inside a cyclic component a
    worklist re-evaluates the in-component callers of any node whose facts
    grew, so each acyclic node is evaluated exactly once.  ``keep`` is the
    caller's edge filter (None lets every fact through).  Every node in
    ``nodes`` gets an entry, empty when nothing holds.
    """
    succ = {n: [m for m, _ in edges.get(n, ())] for n in nodes}
    facts: Dict[N, FrozenSet[F]] = {}
    for comp in sccs(succ, succ):
        members = set(comp)
        callers: Dict[N, List[N]] = {n: [] for n in comp}
        for n in comp:
            for m in succ[n]:
                if m in members:
                    callers[m].append(n)
        work = deque(comp)
        queued = set(comp)
        while work:
            node = work.popleft()
            queued.discard(node)
            grown = set(local(node))
            for target, label in edges.get(node, ()):
                for fact in facts.get(target, ()):
                    if keep is None or keep(label, fact):
                        grown.add(fact)
            frozen = frozenset(grown)
            if frozen == facts.get(node):
                continue
            facts[node] = frozen
            for caller in callers[node]:
                if caller not in queued:
                    queued.add(caller)
                    work.append(caller)
    return facts


def bfs(
    roots: Iterable[N],
    expand: Callable[[N], Iterable[Tuple[N, L]]],
    goal: Optional[Callable[[N], bool]] = None,
    ordered: bool = True,
) -> Tuple[Parents, Optional[N]]:
    """Breadth-first search from ``roots``; returns ``(parent, found)``.

    ``expand(node)`` yields ``(successor, label)`` pairs; the first edge to
    reach a node is its parent link.  When ``goal`` is given the search
    stops at the first visited node satisfying it (``found``; None when
    there is none).  Each level is visited in sorted order, or — with
    ``ordered=False``, for nodes that do not sort — in discovery order, in
    which case ``parent`` iterates in visit order.
    """
    parent: Parents = {root: None for root in roots}
    level = sorted(parent) if ordered else list(parent)
    while level:
        discovered: List[N] = []
        for node in level:
            if goal is not None and goal(node):
                return parent, node
            for child, label in expand(node):
                if child not in parent:
                    parent[child] = (node, label)
                    discovered.append(child)
        level = sorted(discovered) if ordered else discovered
    return parent, None


def path_to(parent: Parents, node: N) -> List[Tuple[N, Optional[L]]]:
    """The BFS tree path from a root down to ``node``: ``(node, label of
    the edge into it)`` pairs, the root's label None."""
    path: List[Tuple[N, Optional[L]]] = []
    cursor: Optional[N] = node
    while cursor is not None:
        link = parent[cursor]
        path.append((cursor, None if link is None else link[1]))
        cursor = None if link is None else link[0]
    path.reverse()
    return path
