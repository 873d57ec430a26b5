"""RES001/RES002/RES003: resilience coverage, WAL confinement, bounded buffers.

RES001 — resilience coverage for cross-peer work (PR 1's machinery).

Every cross-peer operation — a ``SimNetwork`` ``transfer``/``broadcast``
or a remote ``execute_fetch``/``execute_local`` — must run under the
retry/breaker/deadline umbrella of ``repro.core.resilience``: either
inside a function handed to ``EngineContext.call_resilient`` /
``ResilienceContext.call`` (the closure idiom the engines use), or inside
something such a function calls.

Coverage is computed on the call graph: the functions *referenced* as
arguments at ``call_resilient(...)`` / ``<...resilience...>.call(...)``
sites are roots, and everything forward-reachable from them is covered.
A cross-peer site is a finding when no function on its lexical scope chain
is covered.

Exemptions, by design rather than oversight:

* ``sim`` — the substrate *is* the wire; it cannot wrap itself,
* ``mapreduce`` — the MapReduce fault model is job re-execution, not
  per-message retry (the paper's §5.4 engine inherits Hadoop semantics),
* ``analysis`` — no runtime traffic,
* ``repro.core.resilience`` itself — the wrapping machinery.

RES002 — WAL confinement of bootstrap metadata (this PR's machinery).
Every mutation of the bootstrap's replicated metadata
(:class:`repro.core.metalog.BootstrapState`) must flow through the single
``apply()`` reducer: a standby replays the log to promote, so state
touched any other way silently diverges between primary and standby.  The
rule computes the set of functions precisely reachable from ``apply`` and
flags any statement-level mutation (attribute assignment, item write,
augmented assignment, delete, or a mutator-method call like
``state.peers.pop(...)``) of a metadata attribute on a ``state`` receiver
whose lexical scope chain never enters that set.

RES003 — bounded buffers on serving paths (this PR's machinery).
The serving front door survives overload precisely because every queue and
sample window it keeps is bounded; one forgotten ``deque()`` without
``maxlen`` — or a ``self.pending.append(...)`` onto a plain list — turns
admission control back into an OOM under sustained 10x load.  The rule
applies to *serving-enabled* modules (anything under a ``serving`` package
directory, or importing ``repro.serving``) and flags (a) ``deque``
construction without a bound and (b) growth calls / augmented appends on
instance attributes initialized as unbounded lists.  Request-scoped locals
are exempt: they die with the request, so they cannot accumulate across
requests the way persistent instance state can.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Set

from repro.analysis.asthelpers import is_name
from repro.analysis.findings import Finding, Severity
from repro.analysis.projectgraph import CallSite, ModuleNode, ProjectGraph
from repro.analysis.registry import FileContext, ProjectRule, Rule, register_rule

WIRE_METHODS = frozenset({"transfer", "broadcast"})
REMOTE_EXEC_METHODS = frozenset({"execute_fetch", "execute_local"})
#: Call sites whose function-reference arguments are resilience roots.
WRAPPER_NAMES = frozenset({"call_resilient"})

EXEMPT_UNITS = frozenset({"sim", "mapreduce", "analysis"})
EXEMPT_MODULES = frozenset({"repro.core.resilience"})


def _is_wrapper_site(site: CallSite) -> bool:
    if site.callee_name in WRAPPER_NAMES:
        return True
    return (
        site.callee_name == "call"
        and site.receiver is not None
        and "resilience" in site.receiver
    )


def exempt_module(module: ModuleNode) -> bool:
    """Whether cross-peer work in ``module`` is exempt from RES001/RES004."""
    return module.unit in EXEMPT_UNITS or module.name in EXEMPT_MODULES


def resilience_covered(graph: ProjectGraph) -> Set[str]:
    """Functions running under a resilience context: the functions
    referenced at wrapper sites, and everything precisely reachable from
    them.  Memoized on the graph, so RES001 and RES004 share one pass."""
    if "resilience_covered" not in graph.memo:
        roots = {
            ref
            for site in graph.call_sites
            if _is_wrapper_site(site)
            for ref in site.func_ref_args
        }
        graph.memo["resilience_covered"] = graph.functions_reachable_from(
            roots, precise_only=True
        )
    return graph.memo["resilience_covered"]  # type: ignore[return-value]


def _is_cross_peer(site: CallSite) -> bool:
    if site.receiver is None or site.receiver in ("self", "cls"):
        return False
    if site.callee_name in WIRE_METHODS:
        return True
    return site.callee_name in REMOTE_EXEC_METHODS


@register_rule
class ResilienceCoverageRule(ProjectRule):
    id = "RES001"
    severity = Severity.WARNING
    description = (
        "cross-peer call site not covered by a RetryPolicy/deadline "
        "context (call_resilient / ResilienceContext.call)"
    )
    categories = ("src",)

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        covered = resilience_covered(graph)
        for site in graph.call_sites:
            if not _is_cross_peer(site):
                continue
            module = graph.modules.get(site.module)
            if module is None or exempt_module(module):
                continue
            if any(fn in covered for fn in graph.scope_chain(site.caller)):
                continue
            yield self.project_finding(
                module,
                site.lineno,
                site.col,
                f"{site.receiver}.{site.callee_name}(...) in {site.caller!r} "
                f"runs outside any resilience context — wrap it in a "
                f"closure passed to call_resilient/ResilienceContext.call",
            )


#: Replicated-metadata attributes of ``BootstrapState``.
METADATA_ATTRS = frozenset(
    {
        "peers",
        "blacklist",
        "schemas",
        "roles",
        "user_registry",
        "serials",
        "admission_epochs",
        "pending_failovers",
    }
)
#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)
#: The WAL reducer: functions named ``apply`` defined in this module.
WAL_MODULE = "repro.core.metalog"
_STATE_TOKEN = re.compile(r"\bstate\b")


def _is_state_receiver(text: Optional[str]) -> bool:
    """Whether a rendered expression names bootstrap state (``state``,
    ``self.state``, ``cluster.leader.state`` ...)."""
    return text is not None and _STATE_TOKEN.search(text) is not None


@register_rule
class WalConfinementRule(ProjectRule):
    id = "RES002"
    severity = Severity.ERROR
    description = (
        "bootstrap metadata mutated outside the WAL apply() reducer "
        "(repro.core.metalog) — standby replay would diverge"
    )
    categories = ("src",)

    def _allowed(self, graph: ProjectGraph) -> Set[str]:
        roots = {
            qualname
            for qualname, node in graph.functions.items()
            if node.module == WAL_MODULE and node.name == "apply"
        }
        return graph.functions_reachable_from(roots, precise_only=True)

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        allowed = self._allowed(graph)

        def confined(scope: str) -> bool:
            return any(fn in allowed for fn in graph.scope_chain(scope))

        for assign in graph.attr_assigns:
            if assign.attr not in METADATA_ATTRS:
                continue
            if not _is_state_receiver(assign.target):
                continue
            if confined(assign.caller):
                continue
            module = graph.modules.get(assign.module)
            if module is None:
                continue
            yield self.project_finding(
                module,
                assign.lineno,
                assign.col,
                f"{assign.caller!r} mutates {assign.target}.{assign.attr} "
                f"outside the WAL reducer — emit a log record and let "
                f"{WAL_MODULE}.apply fold it in",
            )
        for site in graph.call_sites:
            if site.callee_name not in MUTATOR_METHODS:
                continue
            receiver = site.receiver
            if receiver is None or "." not in receiver:
                continue
            head, _, attr = receiver.rpartition(".")
            if attr not in METADATA_ATTRS or not _is_state_receiver(head):
                continue
            if confined(site.caller):
                continue
            module = graph.modules.get(site.module)
            if module is None:
                continue
            yield self.project_finding(
                module,
                site.lineno,
                site.col,
                f"{site.caller!r} calls {receiver}.{site.callee_name}(...) "
                f"outside the WAL reducer — emit a log record and let "
                f"{WAL_MODULE}.apply fold it in",
            )


#: The package whose importers are "serving-enabled" for RES003.
SERVING_PACKAGE = "repro.serving"
#: Method calls that grow a sequence in place.
GROWTH_METHODS = frozenset(
    {"append", "appendleft", "extend", "extendleft", "insert"}
)


def _imports_serving(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name == SERVING_PACKAGE
                or alias.name.startswith(SERVING_PACKAGE + ".")
                for alias in node.names
            ):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == SERVING_PACKAGE or module.startswith(
                SERVING_PACKAGE + "."
            ):
                return True
    return False


def _is_deque_call(node: ast.Call) -> bool:
    """``deque(...)`` / ``collections.deque(...)`` by any usual spelling."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "deque"
    return isinstance(func, ast.Attribute) and func.attr == "deque"


def _deque_is_bounded(node: ast.Call) -> bool:
    """Whether a deque construction carries a real ``maxlen``.

    ``deque(iterable, maxlen)`` positionally, or ``maxlen=<bound>`` by
    keyword; an explicit ``maxlen=None`` is as unbounded as omitting it.
    """
    if len(node.args) >= 2:
        return not (
            isinstance(node.args[1], ast.Constant)
            and node.args[1].value is None
        )
    for keyword in node.keywords:
        if keyword.arg == "maxlen":
            return not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is None
            )
    return False


def _is_unbounded_list_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and is_name(node.func, "list")
    )


@register_rule
class BoundedBufferRule(Rule):
    id = "RES003"
    severity = Severity.ERROR
    description = (
        "unbounded buffer on a serving path (deque() without maxlen, or "
        "growth of a plain-list instance attribute) — overload turns it "
        "into an OOM; give it a bound"
    )
    categories = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_serving_pkg = "serving" in ctx.path.split("/")
        if not in_serving_pkg and not _imports_serving(ctx.tree):
            return
        # Pass 1: instance attributes initialized as unbounded lists, and
        # unbounded deque constructions (flagged where they are built).
        unbounded_attrs: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_deque_call(node):
                if not _deque_is_bounded(node):
                    yield self.finding(
                        ctx,
                        node,
                        "deque() without maxlen on a serving path — a "
                        "burst fills it without bound; pass "
                        "maxlen=<config bound>",
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None or not _is_unbounded_list_expr(value):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute) and is_name(
                        target.value, "self"
                    ):
                        unbounded_attrs.add(target.attr)
        if not unbounded_attrs:
            return
        # Pass 2: growth of those attributes is what makes them a leak.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in GROWTH_METHODS
                    and isinstance(func.value, ast.Attribute)
                    and is_name(func.value.value, "self")
                    and func.value.attr in unbounded_attrs
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"self.{func.value.attr}.{func.attr}(...) grows an "
                        f"unbounded list across requests — use "
                        f"deque(maxlen=...) or shed when full",
                    )
            elif (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Attribute)
                and is_name(node.target.value, "self")
                and node.target.attr in unbounded_attrs
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"self.{node.target.attr} += ... grows an unbounded "
                    f"list across requests — use deque(maxlen=...) or "
                    f"shed when full",
                )
