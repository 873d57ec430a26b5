"""Value-flow engine: interprocedural taint over the per-function summaries.

The reachability rules (SEC001, RES001) ask "does a *path* exist" on the
call graph; they cannot see *which value* travels it.  This module adds the
missing half.  Its input is the def-use half of each function's
:class:`~repro.analysis.effects.FunctionSummary`: the one summary pass
(:func:`~repro.analysis.effects.compute_summaries`, cached per module next
to the pickled ASTs) interprets every function body once,
flow-sensitively, into spec-independent def-use edges between abstract
value nodes, its calls and its attribute reads, with ``self.attr`` writes
landing in per-attribute *cells*.

**Interprocedural taint** (:class:`TaintEngine`).  The core
:func:`~repro.analysis.fixpoint.bfs` over global ``(function, node)`` pairs,
stitched through the project graph: at a *precisely* resolved call site,
argument nodes splice into the callee's parameters and the callee's return
node feeds the caller's call-result node; at ambiguous or library calls,
taint flows through (arguments to result) — unless the callee is a declared
*sanitizer*, which cuts the flow entirely.  ``self.attr`` cells link across
the methods of a class.  Sources, sinks, sanitizers and guards are
declarative (:class:`TaintSpec`); a finding is emitted only when tainted
data reaches a sink argument with no guard *must-executed* before the sink
in its function and no guard reachable (precise edges only) from the
lexical scope chain of either endpoint — the same closure idiom SEC001
honors.  Every finding carries the actual source-to-sink hop list.

Everything iterates in sorted order; two runs over the same tree produce
identical findings and identical traces regardless of input file order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.effects import (
    FunctionSummary,
    LocalCall,
    Node,
    compute_summaries,
)
from repro.analysis.fixpoint import Parents, bfs, path_to
from repro.analysis.projectgraph import CallSite, ProjectGraph

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def receiver_tokens(text: Optional[str]) -> FrozenSet[str]:
    """Identifier tokens of a rendered receiver (``self._backlog`` does
    not contain the token ``log``; ``self.meta_log`` does not either —
    only ``meta_log``)."""
    if not text:
        return frozenset()
    return frozenset(_TOKEN_RE.findall(text))


# ----------------------------------------------------------------------
# Declarative specs + the interprocedural taint search


@dataclass(frozen=True)
class SourceSpec:
    """What makes a value tainted."""

    kind: str
    describe: str
    #: Callee names whose *results* are sources.
    calls: Tuple[str, ...] = ()
    #: "any" | "remote" (receiver present, not self/cls) | "exact".
    receiver_mode: str = "any"
    #: Exact rendered receivers for mode "exact"; "" matches a bare call.
    receiver_names: Tuple[str, ...] = ()
    #: The SEC001 predicate: only a fetch without an effective user taints.
    require_no_user: bool = False
    #: Attribute reads ``(base_token, attr)`` that are sources; a base
    #: token "" matches any base.
    attrs: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SinkSpec:
    """Where tainted values must not arrive."""

    label: str
    calls: Tuple[str, ...]
    #: Receiver must contain one of these identifier tokens (None = any).
    receiver_tokens: Optional[Tuple[str, ...]] = None
    #: Admissible argument positions (ints / "kw:<name>"; None = any).
    positions: Optional[Tuple[object, ...]] = None


@dataclass(frozen=True)
class TaintSpec:
    """One source-family → sink-family question, with its escape hatches."""

    name: str
    sources: Tuple[SourceSpec, ...]
    sinks: Tuple[SinkSpec, ...]
    #: Calls whose results are *clean* even for tainted inputs.
    sanitizers: Tuple[str, ...] = ()
    #: Calls that, executed before the sink (or reachable from either
    #: endpoint's lexical scope chain), clear the finding.
    guards: Tuple[str, ...] = ()


@dataclass
class TaintHit:
    """One tainted value arriving at one sink argument."""

    spec: TaintSpec
    source: SourceSpec
    sink: SinkSpec
    sink_qual: str
    sink_module: str
    sink_call: LocalCall
    #: Qualname of the function the source seed lives in.
    origin_qual: str
    origin_desc: str
    #: (path, lineno, note) hops, source first, sink last.
    trace: Tuple[Tuple[str, int, str], ...]


GlobalNode = Tuple  # (qualname, Node) or ("~cell", module, cls, attr)


def _call_has_no_user(call: LocalCall) -> bool:
    if call.nargs >= 3:
        return 2 in call.none_args
    if "user" in call.kwnames:
        return "kw:user" in call.none_args
    return True


def _match_source_call(source: SourceSpec, call: LocalCall) -> bool:
    if call.callee_name not in source.calls:
        return False
    receiver = call.receiver
    if source.receiver_mode == "remote":
        if receiver is None or receiver in ("self", "cls"):
            return False
    elif source.receiver_mode == "exact":
        if (receiver or "") not in source.receiver_names:
            return False
    if source.require_no_user and not _call_has_no_user(call):
        return False
    return True


def _match_sink(sink: SinkSpec, call: LocalCall, pos: object) -> bool:
    if call.callee_name not in sink.calls:
        return False
    if sink.receiver_tokens is not None:
        if not receiver_tokens(call.receiver) & set(sink.receiver_tokens):
            return False
    if sink.positions is not None and pos not in sink.positions:
        return False
    return True


class TaintEngine:
    """Runs :class:`TaintSpec` questions over one graph + its summaries."""

    def __init__(
        self, graph: ProjectGraph, flows: Dict[str, FunctionSummary]
    ) -> None:
        self.graph = graph
        self.flows = flows
        # Keyed by (caller, anchor lineno/col, callee name): chained calls
        # share one anchor, so the name is part of the site's identity.
        self._site_index: Dict[Tuple[str, int, int, str], CallSite] = {}
        for site in graph.call_sites:
            self._site_index[
                (site.caller, site.lineno, site.col, site.callee_name)
            ] = site
        # callee → caller-side ("ret", lineno, col) coordinates of every
        # precise call into it.  Built from the flows (not the raw graph
        # sites) so the coordinates match the summary's call keys.
        self._ret_links: Dict[str, List[Tuple[str, int, int]]] = {}
        for qual in sorted(flows):
            flow = flows[qual]
            for key in sorted(flow.calls):
                call = flow.calls[key]
                site = self._site_index.get(
                    (
                        qual,
                        call.anchor_lineno,
                        call.anchor_col,
                        call.callee_name,
                    )
                )
                if site is None or not (site.precise and site.resolved):
                    continue
                for callee in sorted(site.resolved):
                    if callee in flows:
                        self._ret_links.setdefault(callee, []).append(
                            (qual, call.lineno, call.col)
                        )
        self._class_methods: Dict[Tuple[str, str], List[str]] = {}
        for qual in sorted(flows):
            flow = flows[qual]
            if flow.cls is not None:
                self._class_methods.setdefault(
                    (flow.module, flow.cls), []
                ).append(qual)

    @classmethod
    def for_graph(cls, graph: ProjectGraph) -> "TaintEngine":
        """The per-run engine, shared by every dataflow rule via the
        graph's memo (one summary pass + one index build per analysis run)."""
        if "taint_engine" not in graph.memo:
            graph.memo["taint_engine"] = cls(graph, compute_summaries(graph)[0])
        return graph.memo["taint_engine"]  # type: ignore[return-value]

    # -- splicing ------------------------------------------------------

    def _param_for(
        self, flow: FunctionSummary, call: LocalCall, node: Node
    ) -> Optional[str]:
        """The callee parameter a caller-side arg/recv node lands in."""
        offset = 1 if flow.cls is not None else 0
        if node[0] == "recv":
            if offset and flow.param_names:
                return flow.param_names[0]
            return None
        pos = node[3]
        if isinstance(pos, int):
            idx = pos + offset
            if idx < len(flow.param_names):
                return flow.param_names[idx]
            return flow.vararg
        name = pos[3:]  # strip "kw:"
        if name == "**":
            return None
        if name in flow.param_names or name in flow.kwonly_names:
            return name
        return flow.kwarg

    def _expand(
        self, gnode: GlobalNode, spec: TaintSpec
    ) -> List[GlobalNode]:
        if gnode[0] == "~cell":
            _, module, cls, attr = gnode
            return [
                (qual, ("cell", attr))
                for qual in self._class_methods.get((module, cls), ())
            ]
        qual, node = gnode
        flow = self.flows.get(qual)
        if flow is None:
            return []
        out: List[GlobalNode] = [
            (qual, succ) for succ in sorted(flow.succ.get(node, ()), key=repr)
        ]
        kind = node[0]
        if kind in ("arg", "recv"):
            lineno, col = node[1], node[2]
            call = flow.calls.get((lineno, col))
            if call is not None:
                if (
                    call.callee_name in spec.sanitizers
                    or call.callee_name in spec.guards
                ):
                    # Sanitizers cut arg→result flow; so do guards — a
                    # value handed to ``verify(cert)`` is being *checked*,
                    # and following it through the checker's internals
                    # (and back out of the checker's other call sites)
                    # only manufactures context-insensitive noise.
                    return out
                site = self._site_index.get(
                    (
                        qual,
                        call.anchor_lineno,
                        call.anchor_col,
                        call.callee_name,
                    )
                )
                spliced = False
                if site is not None and site.precise and site.resolved:
                    for callee in sorted(site.resolved):
                        callee_flow = self.flows.get(callee)
                        if callee_flow is None:
                            continue
                        param = self._param_for(callee_flow, call, node)
                        if param is not None:
                            out.append((callee, ("param", param)))
                            spliced = True
                if not spliced:
                    # Ambiguous or library call: assume taint-through.
                    out.append((qual, ("ret", lineno, col)))
        elif kind == "cell" and flow.cls is not None:
            out.append(("~cell", flow.module, flow.cls, node[1]))
        elif kind == "return":
            for caller, lineno, col in self._ret_links.get(qual, ()):
                out.append((caller, ("ret", lineno, col)))
        return out

    # -- rendering -----------------------------------------------------

    def _node_location(self, gnode: GlobalNode) -> Tuple[str, int]:
        if gnode[0] == "~cell":
            module = self.graph.modules.get(gnode[1])
            return (module.path if module else gnode[1], 1)
        qual, node = gnode
        flow = self.flows[qual]
        module = self.graph.modules.get(flow.module)
        path = module.path if module else flow.module
        if node[0] in ("ret", "arg", "recv", "obj"):
            return path, node[1]
        if node[0] == "attr":
            return path, node[3]
        return path, flow.lineno

    def _node_note(self, gnode: GlobalNode) -> str:
        if gnode[0] == "~cell":
            return f"attribute {gnode[3]!r} shared across class {gnode[2]}"
        qual, node = gnode
        flow = self.flows[qual]
        kind = node[0]
        if kind in ("ret", "arg", "recv"):
            call = flow.calls.get((node[1], node[2]))
            callee = call.callee_name if call else "?"
            if kind == "ret":
                return f"result of {callee}(...)"
            if kind == "recv":
                return f"receiver of {callee}(...)"
            return f"argument {node[3]} of {callee}(...)"
        if kind == "param":
            return f"parameter {node[1]!r} of {flow.name}"
        if kind == "cell":
            return f"self.{node[1]} in {flow.name}"
        if kind == "attr":
            return f"read of {node[1]}.{node[2]}"
        if kind == "obj":
            return f"container in {flow.name}"
        return f"return value of {flow.name}"

    def _trace(
        self, gnode: GlobalNode, preds: Parents, origin_desc: str
    ) -> Tuple[Tuple[str, int, str], ...]:
        hops: List[Tuple[str, int, str]] = []
        for i, (hop, _) in enumerate(path_to(preds, gnode)):
            path, lineno = self._node_location(hop)
            note = self._node_note(hop)
            if i == 0:
                note = f"source: {origin_desc}"
            if hops and hops[-1][0] == path and hops[-1][1] == lineno:
                continue  # collapse same-line steps
            hops.append((path, lineno, note))
        return tuple(hops)

    # -- the search ----------------------------------------------------

    def _seeds(
        self, spec: TaintSpec
    ) -> List[Tuple[GlobalNode, SourceSpec, str]]:
        seeds: List[Tuple[GlobalNode, SourceSpec, str]] = []
        for qual in sorted(self.flows):
            flow = self.flows[qual]
            for source in spec.sources:
                for key in sorted(flow.calls):
                    call = flow.calls[key]
                    if _match_source_call(source, call):
                        target = (
                            f"{call.receiver}.{call.callee_name}"
                            if call.receiver
                            else call.callee_name
                        )
                        seeds.append(
                            (
                                (qual, ("ret", call.lineno, call.col)),
                                source,
                                f"{source.describe} ({target}(...))",
                            )
                        )
                for base, attr, lineno, col in sorted(flow.attr_reads):
                    for base_token, attr_name in source.attrs:
                        if attr != attr_name:
                            continue
                        if base_token and base_token not in receiver_tokens(
                            base
                        ):
                            continue
                        seeds.append(
                            (
                                (qual, ("attr", base, attr, lineno, col)),
                                source,
                                f"{source.describe} ({base}.{attr})",
                            )
                        )
        return seeds

    def _guard_cleared(
        self,
        spec: TaintSpec,
        call: LocalCall,
        sink_qual: str,
        origin_qual: str,
        guards_reaching: Set[str],
    ) -> bool:
        if not spec.guards:
            return False
        if call.must_before & set(spec.guards):
            return True
        # The verifying-sink idiom: the privileged operation checks its
        # own input (``CertificateAuthority.install`` verifies before
        # adopting).  If a guard is precisely reachable from the function
        # actually being called at the sink, the value cannot get through
        # unchecked.
        site = self._site_index.get(
            (sink_qual, call.anchor_lineno, call.anchor_col, call.callee_name)
        )
        if site is not None and any(
            callee in guards_reaching for callee in site.resolved
        ):
            return True
        # The closure idiom: a guard reachable from a lexically *enclosing*
        # scope clears the flow (the closure runs under the parent's
        # check).  The sink/origin function itself gets no such credit —
        # there the guard must be must-executed, or a guard call on one
        # branch would clear a flow on the other.
        for scope in (sink_qual, origin_qual):
            if any(
                fn in guards_reaching
                for i, fn in enumerate(self.graph.scope_chain(scope))
                if i > 0
            ):
                return True
        return False

    def run(self, spec: TaintSpec) -> List[TaintHit]:
        guards_reaching: Set[str] = set()
        if spec.guards:
            guards_reaching = self.graph.functions_reaching(
                set(spec.guards), precise_only=True
            )
        hits: List[TaintHit] = []
        emitted: Set[Tuple] = set()
        for seed, source, origin_desc in self._seeds(spec):
            # Global nodes do not sort, so levels keep discovery order and
            # ``preds`` iterates in visit order.
            preds, _ = bfs(
                [seed],
                lambda gnode: ((s, None) for s in self._expand(gnode, spec)),
                ordered=False,
            )
            for gnode in preds:
                if gnode[0] == "~cell" or gnode[1][0] != "arg":
                    continue
                qual, node = gnode
                call = self.flows[qual].calls.get((node[1], node[2]))
                if call is not None:
                    self._check_sink(
                        spec, source, qual, node, call, seed[0],
                        origin_desc, guards_reaching, preds, emitted, hits,
                    )
        hits.sort(
            key=lambda h: (
                h.sink_module, h.sink_call.lineno, h.sink_call.col,
                h.origin_desc,
            )
        )
        return hits

    def _check_sink(
        self,
        spec: TaintSpec,
        source: SourceSpec,
        qual: str,
        node: Node,
        call: LocalCall,
        origin_qual: str,
        origin_desc: str,
        guards_reaching: Set[str],
        preds: Parents,
        emitted: Set[Tuple],
        hits: List[TaintHit],
    ) -> None:
        for sink in spec.sinks:
            if not _match_sink(sink, call, node[3]):
                continue
            key = (qual, call.lineno, call.col, origin_qual, sink.label)
            if key in emitted:
                continue
            if self._guard_cleared(
                spec, call, qual, origin_qual, guards_reaching
            ):
                continue
            emitted.add(key)
            flow = self.flows[qual]
            hits.append(
                TaintHit(
                    spec=spec,
                    source=source,
                    sink=sink,
                    sink_qual=qual,
                    sink_module=flow.module,
                    sink_call=call,
                    origin_qual=origin_qual,
                    origin_desc=origin_desc,
                    trace=self._trace((qual, node), preds, origin_desc),
                )
            )
