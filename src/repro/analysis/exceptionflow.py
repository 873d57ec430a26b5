"""RES004: escaping-exception-flow analysis for NetworkError-family errors.

RES001 answers "is this cross-peer *site* under a resilience context?" by
checking the site's lexical scope chain.  That misses the dual failure: a
helper that *is* wrapped on one path (so RES001 stays quiet) but is also
called bare from somewhere else — the ``NetworkError`` raised inside it
then unwinds through callers none of which retry, breaker, or catch.

This rule computes, per function, whether a ``NetworkError``-family
exception can *escape* it: a cross-peer primitive call or an explicit
``raise`` of a family type, not enclosed in a handler that catches the
family, or a call to a function the family escapes from, equally unhandled
— a bottom-up fixpoint (:func:`repro.analysis.fixpoint.solve`) over the
precise call graph.  It then walks top-down from *entry points* (functions
with no precise callers) marking functions the escape actually *reaches*
with no resilience coverage and no handler anywhere on the propagation
path, and flags each uncaught, uncovered call site into an escaping callee
on such a path.  The finding's trace is the shortest witness chain down to
the primitive that raises, chosen after convergence.

Nothing here walks an AST: handler contexts and ``raise`` sites come from
the per-function :class:`~repro.analysis.effects.FunctionSummary`,
primitive and wrapper calls from the graph's call sites, classified as
RES001 classifies them.  A handler catches the family when it names
``NetworkError`` or one of its bases (the class-hierarchy check effect
inference uses, with the ``repro.errors`` chain always known); catching a
subclass such as ``RpcTimeoutError`` does not stop the family.

Exemptions mirror RES001: ``sim`` (the substrate is the wire),
``mapreduce`` (job re-execution is the fault model), ``analysis`` (no
runtime traffic), and ``repro.core.resilience`` itself.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.analysis.effects import catches, compute_summaries
from repro.analysis.findings import Finding, Severity
from repro.analysis.fixpoint import bfs, path_to, solve
from repro.analysis.projectgraph import CallSite, ProjectGraph
from repro.analysis.registry import ProjectRule, register_rule
from repro.analysis.resiliencerules import (
    _is_cross_peer,
    _is_wrapper_site,
    exempt_module,
    resilience_covered,
)

#: The family whose escape we track.
FAMILY_ROOT = "NetworkError"
#: ``repro.errors``' chain, known even when that module is not scanned.
_BUILTIN_BASES = {
    "RpcTimeoutError": frozenset({"TransientNetworkError"}),
    "TransientNetworkError": frozenset({"NetworkError"}),
    "NetworkError": frozenset({"SimulationError"}),
    "SimulationError": frozenset({"ReproError"}),
}
_FAMILY = frozenset({FAMILY_ROOT})


@register_rule
class ExceptionEscapeRule(ProjectRule):
    id = "RES004"
    severity = Severity.WARNING
    description = (
        "call site through which NetworkError-family exceptions escape "
        "to an entry point with no resilience coverage or handler "
        "anywhere on the propagation path"
    )
    categories = ("src",)
    rationale = (
        "RES001 checks each cross-peer site's own lexical scope chain — "
        "so a helper wrapped in call_resilient on one path looks covered "
        "even when a second, bare call path lets its RpcTimeoutError "
        "unwind through callers that never retry or catch.  RES004 "
        "computes which functions the NetworkError family can escape "
        "from (a bottom-up summary over raises, cross-peer primitives "
        "and uncaught calls), then follows the unwind top-down from "
        "entry points and flags the uncovered, unhandled hops, with the "
        "witness chain down to the raising primitive in the trace."
    )
    example_violation = (
        "class Net:\n"
        "    def transfer(self, src, dst, nbytes):\n"
        "        return nbytes\n"
        "\n"
        "def fetch_block(net, dst):\n"
        "    return net.transfer('a', dst, 10)\n"
        "\n"
        "def sync(net):\n"
        "    return fetch_block(net, 'b')\n"
    )
    example_clean = (
        "class Net:\n"
        "    def transfer(self, src, dst, nbytes):\n"
        "        return nbytes\n"
        "\n"
        "class NetworkError(Exception):\n"
        "    pass\n"
        "\n"
        "def fetch_block(net, dst):\n"
        "    return net.transfer('a', dst, 10)\n"
        "\n"
        "def sync(net):\n"
        "    try:\n"
        "        return fetch_block(net, 'b')\n"
        "    except NetworkError:\n"
        "        return None\n"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        bases, class_bases = compute_summaries(graph)
        hierarchy = dict(class_bases)
        for cls, extra in _BUILTIN_BASES.items():
            hierarchy[cls] = hierarchy.get(cls, frozenset()) | extra

        def exempt(qual: str) -> bool:
            module = graph.modules.get(qual.split(":", 1)[0])
            return module is None or exempt_module(module)

        # Where the family starts unwinding: (line, note) per function.
        sources: Dict[str, List[Tuple[int, str]]] = {}
        for qual in sorted(bases):
            if exempt(qual):
                continue
            for intr in bases[qual].intrinsics:
                name = intr.atom[1] if intr.atom[0] == "raises" else None
                if (
                    name is not None
                    and catches(name, _FAMILY, hierarchy)
                    and not catches(name, intr.caught, hierarchy)
                ):
                    sources.setdefault(qual, []).append(
                        (intr.lineno, intr.text)
                    )

        # The unwind edges: uncaught, unwrapped call sites and the precise,
        # non-exempt callees each resolves to.
        unwinds: Dict[str, List[Tuple[CallSite, Tuple[str, ...]]]] = {}
        for site in graph.call_sites:
            base = bases.get(site.caller)
            if base is None or _is_wrapper_site(site):
                continue
            handled = base.call_catches.get((site.lineno, site.col))
            if handled and catches(FAMILY_ROOT, handled, hierarchy):
                continue
            if _is_cross_peer(site) and not exempt(site.caller):
                sources.setdefault(site.caller, []).append(
                    (
                        site.lineno,
                        f"{site.receiver}.{site.callee_name}(...) can raise",
                    )
                )
            callees = tuple(
                callee
                for callee in sorted(site.resolved)
                if site.precise and callee in bases and not exempt(callee)
            )
            if callees:
                unwinds.setdefault(site.caller, []).append((site, callees))
        edges = {
            caller: sorted(
                ((callee, site.lineno) for site, callees in hops
                 for callee in callees),
                key=lambda edge: (edge[1], edge[0]),
            )
            for caller, hops in unwinds.items()
        }

        facts = solve(
            bases, edges, lambda qual: _FAMILY if qual in sources else ()
        )
        escapes = {qual for qual, fact in facts.items() if fact}

        covered = resilience_covered(graph)

        def protected(qual: str) -> bool:
            return any(fn in covered for fn in graph.scope_chain(qual))

        # Top-down: which functions does the escape actually reach with
        # no protection on the way from an entry point.
        entries = [
            qual
            for qual in bases
            if qual not in graph.reverse_precise_edges and not protected(qual)
        ]
        exposed, _ = bfs(
            entries,
            lambda qual: (
                (callee, None)
                for callee, _ in edges.get(qual, ())
                if not protected(callee)
            ),
        )

        def witness(
            path: str, lineno: int, callee: str
        ) -> Tuple[Tuple[str, int, str], ...]:
            """The shortest chain from ``callee`` down to a source."""
            parent, found = bfs(
                [callee],
                lambda qual: (
                    edge for edge in edges.get(qual, ()) if edge[0] in escapes
                ),
                goal=sources.__contains__,
            )
            hops = [(path, lineno, f"uncovered call into {callee!r}")]
            chain = path_to(parent, found)
            for (qual, _), (nxt, call_line) in zip(chain, chain[1:]):
                hops.append(
                    (
                        graph.module_of_function(qual).path,
                        call_line,
                        f"uncaught call into {nxt!r}",
                    )
                )
            line, note = min(sources[found])
            hops.append((graph.module_of_function(found).path, line, note))
            return tuple(hops)

        for qual in sorted(exposed):
            if exempt(qual):
                continue
            module = graph.module_of_function(qual)
            for site, callees in unwinds.get(qual, ()):
                if _is_cross_peer(site):
                    continue  # RES001's territory
                callee = next((c for c in callees if c in escapes), None)
                if callee is None:
                    continue
                finding = self.project_finding(
                    module,
                    site.lineno,
                    site.col,
                    f"NetworkError-family exceptions escape "
                    f"{callee!r} and propagate through {qual!r} with "
                    f"no resilience coverage or handler on the path "
                    f"— wrap the call or catch the family",
                )
                finding.trace = witness(module.path, site.lineno, callee)
                yield finding
