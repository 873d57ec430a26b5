"""Tier 4: interprocedural effect inference, and the one per-function
summary pass every interprocedural tier reads.

The first three tiers answer "what does this line do", "who calls whom",
and "where does this value go".  This tier answers the question the
simulator's event handlers and the executor and vector kernels need:
*what is this function allowed to do at all*.  It runs in two phases.

**Phase A — one summary per function** (:class:`FunctionSummary`).  Each
function scope of :func:`~repro.analysis.projectgraph.iter_scopes` (and
each module's top-level pseudo-function) is walked once, by a
flow-sensitive abstract interpreter (:class:`_Summarizer`).  The walk
yields both halves of the summary: the def-use graph, calls and attribute
reads the taint tier (:mod:`repro.analysis.dataflow`) searches, and the
intrinsic effect sites — ``time.monotonic``, ``random.shuffle``, ``open``,
``sock.sendall``, ``network.transfer``, attribute writes, ``raise``
statements — with the exception names caught around each call, which
this tier and RES004 read.  Class, lambda and ``match`` case bodies count
as the enclosing function's code.  Summaries depend on one module's source
only, so they are cached per module beside the pickled ASTs under
:data:`SUMMARY_TAG`; changing what the walk records must bump
:data:`SUMMARY_VERSION`.

**Phase B — the effect fixpoint** (:class:`EffectInference`).  Every
function gets an inferred effect signature

    {wallclock, global_random, real_io, network_send,
     mutates(owner class, ...), raises(exception, ...)}

seeded from its intrinsic sites and propagated bottom-up over the
strongly-connected components of the
:class:`~repro.analysis.projectgraph.ProjectGraph` call graph until a
fixpoint (:func:`repro.analysis.fixpoint.solve`); witnesses are shortest
call chains (:func:`repro.analysis.fixpoint.bfs`).

Edge discipline — the part that keeps the lattice honest:

* a **reliable** edge (lexical scope, imports, same-class self-call)
  propagates the callee's full signature;
* a **fallback** edge (any-method-of-this-name, even when the name is
  project-unique) propagates only when the rendered receiver names the
  candidate's class (``self.log.append`` may inherit
  ``MetadataLog.append``; ``pending.append`` may not) — this is the
  "conservative widening" of ambiguous edges: grounded in receiver text,
  never in wishful uniqueness;
* intrinsics are matched at *every* call site regardless of resolution,
  so ``time.sleep(...)`` is never laundered by an unresolvable alias;
* a function *referenced* as a call argument is assumed invoked by the
  callee (``queue.push(when, handler)`` gives the pusher the handler's
  effects) — over-approximation only raises suspicion, which is the
  correct direction for a purity contract.

``raises`` atoms are filtered at each hop by the enclosing ``except``
clauses of the call site (exception-class hierarchy resolved name-wise
across the project; a bare ``except`` or ``except Exception`` swallows
everything).  All other atoms propagate unconditionally.  Everything is
deterministic: modules, functions, edges, SCCs and witness searches all
iterate in sorted order, and causes are computed only after convergence.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.asthelpers import ImportMap
from repro.analysis.fixpoint import bfs, path_to, solve
from repro.analysis.projectgraph import (
    MODULE_SCOPE,
    FunctionNode,
    ProjectGraph,
    iter_scopes,
)

#: Bump when :class:`FunctionSummary` or what the walk records changes.
SUMMARY_VERSION = 2
#: Aux-cache tag under which per-module summaries are pickled.
SUMMARY_TAG = f"summary{SUMMARY_VERSION}"

#: Effect atoms.  Tuples so they pickle, hash and sort without ceremony::
#:
#:     ("wallclock",)          reads or blocks on the real clock
#:     ("global_random",)      draws from the process-global RNG / OS entropy
#:     ("real_io",)            touches the filesystem, stdio, or a process
#:     ("network_send",)       puts bytes on a wire (real or simulated)
#:     ("mutates", owner)      writes state owned by ``owner`` —
#:                             "module:Class", ":Class" (class not resolved
#:                             to a module) or "module:<globals>"
#:     ("raises", name)        may raise exception class ``name``
Atom = Tuple
WALLCLOCK: Atom = ("wallclock",)
GLOBAL_RANDOM: Atom = ("global_random",)
REAL_IO: Atom = ("real_io",)
NETWORK_SEND: Atom = ("network_send",)

#: The non-raise atom kinds, in reporting priority order.
EFFECT_KINDS = (
    "wallclock",
    "global_random",
    "network_send",
    "real_io",
    "mutates",
)


def mutates(owner: str) -> Atom:
    """The shared-state-mutation atom for ``owner`` (``module:Class``)."""
    return ("mutates", owner)


def raises(name: str) -> Atom:
    """The may-raise atom for exception class ``name``."""
    return ("raises", name)


def catches(
    exc: str,
    caught: FrozenSet[str],
    class_bases: Mapping[str, FrozenSet[str]],
) -> bool:
    """Whether handlers for the names in ``caught`` catch exception class
    ``exc``: a bare ``except`` (recorded as ``BaseException``) or ``except
    Exception`` swallows everything; otherwise some class on ``exc``'s
    name-wise base chain must be named."""
    if not caught:
        return False
    if "BaseException" in caught or "Exception" in caught:
        return True
    _, found = bfs(
        [exc],
        lambda name: ((base, None) for base in class_bases.get(name, ())),
        goal=caught.__contains__,
    )
    return found is not None


def owner_class(owner: str) -> str:
    """Class part of a mutation owner (``repro.core.metalog:MetadataLog``
    → ``MetadataLog``; ``repro.bench:<globals>`` → ``<globals>``)."""
    return owner.rsplit(":", 1)[-1]


def owner_module(owner: str) -> str:
    """Module part of a mutation owner ("" when the class never resolved)."""
    return owner.rsplit(":", 1)[0]


def render_atom(atom: Atom) -> str:
    """Human-facing form of one atom (``mutates(MetadataLog)``)."""
    if atom[0] == "mutates":
        return f"mutates({owner_class(atom[1])})"
    if atom[0] == "raises":
        return f"raises({atom[1]})"
    return atom[0]


@dataclass(frozen=True)
class IntrinsicSite:
    """One syntactic point where an effect enters a function directly."""

    atom: Atom
    lineno: int
    col: int
    #: Human cause, e.g. ``time.perf_counter(...)`` or ``self.peers[...] =``.
    text: str
    #: Exception names caught around this site (``raises`` atoms only —
    #: a raise inside ``try/except ValueError`` never leaves the function).
    caught: FrozenSet[str] = frozenset()


#: Abstract value node of the def-use graph, one of::
#:
#:     ("param", name)             a parameter
#:     ("ret", lineno, col)        the result of the call whose callee
#:                                 expression *ends* at (lineno, col) —
#:                                 see :class:`LocalCall`
#:     ("arg", lineno, col, pos)   a value passed at that call; pos is an
#:                                 int or "kw:<name>"
#:     ("recv", lineno, col)       the receiver value at that call
#:     ("attr", base, name, l, c)  an attribute read ``<base>.<name>``
#:     ("cell", name)              the ``self.<name>`` storage cell
#:     ("obj", lineno, col)        a container literal / comprehension
#:     ("return",)                 the function's return value
Node = Tuple
RETURN: Node = ("return",)


@dataclass
class LocalCall:
    """One syntactic call inside one function, summary-side.

    ``(lineno, col)`` is the *end of the callee expression* — unique along
    a chain like ``x.f().g()``, where both ``ast.Call`` nodes share the
    chain's start position.  ``(anchor_lineno, anchor_col)`` is that shared
    start position, which is what :class:`ProjectGraph` keys its call
    sites by; joins with the graph must use the anchor plus the callee
    name.
    """

    lineno: int
    col: int
    anchor_lineno: int
    anchor_col: int
    callee_name: str
    receiver: Optional[str]
    nargs: int
    kwnames: Tuple[str, ...]
    #: Positions (ints / "kw:<name>") holding a literal ``None``.
    none_args: Tuple[object, ...]
    #: Bare callee names that have *definitely* executed before this site
    #: on every path (branch merges intersect; loops restore).
    must_before: FrozenSet[str]


@dataclass
class FunctionSummary:
    """The cacheable, purely local summary of one function, read by every
    interprocedural tier: its def-use graph (taint) and its intrinsic
    effect sites and handler contexts (effects, RES004).

    Depends only on its module's source text (plus that module's imports),
    never on other modules — the precondition for content-hash caching.
    """

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    #: The def's line; 0 for the module pseudo-function, as in the graph.
    lineno: int
    param_names: Tuple[str, ...]
    kwonly_names: Tuple[str, ...]
    vararg: Optional[str]
    kwarg: Optional[str]
    succ: Dict[Node, Set[Node]] = field(default_factory=dict)
    calls: Dict[Tuple[int, int], LocalCall] = field(default_factory=dict)
    #: Every attribute read, as ``(base_text, attr, lineno, col)``.
    attr_reads: List[Tuple[str, str, int, int]] = field(default_factory=list)
    intrinsics: List[IntrinsicSite] = field(default_factory=list)
    #: Call anchors ``(lineno, col)`` wrapped in ``try`` → names caught
    #: there.  Sparse: anchors with nothing caught are simply absent.
    call_catches: Dict[Tuple[int, int], FrozenSet[str]] = field(
        default_factory=dict
    )


# ----------------------------------------------------------------------
# Intrinsic tables


_TIME_WALLCLOCK = frozenset(
    {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
     "perf_counter_ns", "sleep"}
)
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})
_RANDOM_FUNCS = frozenset(
    {"random", "randint", "randrange", "uniform", "gauss", "normalvariate",
     "choice", "choices", "shuffle", "sample", "getrandbits", "randbytes",
     "seed", "betavariate", "expovariate", "triangular", "paretovariate",
     "vonmisesvariate", "weibullvariate", "lognormvariate", "gammavariate",
     "binomialvariate"}
)
_OS_IO = frozenset(
    {"remove", "unlink", "rename", "replace", "makedirs", "mkdir", "rmdir",
     "removedirs", "system", "popen", "listdir", "scandir", "stat", "walk",
     "truncate", "chmod", "chown", "symlink", "link", "open"}
)
_OSPATH_IO = frozenset(
    {"exists", "isfile", "isdir", "islink", "getsize", "getmtime",
     "getatime", "getctime", "realpath"}
)
#: Method names distinctive enough to mean pathlib regardless of receiver.
_PATHLIB_IO = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes", "touch",
     "iterdir", "hardlink_to", "symlink_to"}
)
_SUBPROCESS_IO = frozenset(
    {"run", "call", "check_call", "check_output", "Popen"}
)
#: Socket method names distinctive enough to flag on any receiver.
_SOCKET_SEND = frozenset({"sendall", "sendto", "recvfrom"})
_SOCKET_MODULE = frozenset({"socket", "create_connection", "create_server"})
_REQUESTS_VERBS = frozenset(
    {"get", "post", "put", "delete", "head", "patch", "request"}
)
#: The project's own wire boundary: a priced transfer on the (simulated)
#: network.  Matched on any receiver but ``self``/``cls`` — calling your
#: own ``transfer`` is implementing the wire, not using it.
_PROJECT_SEND = frozenset({"transfer", "broadcast"})

#: Container methods that push an argument into their receiver (a
#: def-use edge from the argument to the receiver's value).
_PUSH_METHODS = frozenset(
    {"add", "append", "appendleft", "extend", "extendleft", "insert",
     "setdefault", "update", "push"}
)

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {"append", "appendleft", "add", "extend", "extendleft", "insert",
     "update", "setdefault", "pop", "popleft", "popitem", "remove",
     "discard", "clear", "push"}
)

#: Metadata attributes that mark a ``state``-named receiver as the
#: bootstrap's replicated state even without an annotation.  Mirrors
#: RES002's table — the two rules must agree on what "metadata" means.
_METADATA_ATTRS = frozenset(
    {"peers", "blacklist", "schemas", "roles", "user_registry", "serials",
     "admission_epochs", "pending_failovers"}
)
_STATE_TOKEN_RE = re.compile(r"\bstate\b")

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z0-9]+|[A-Z]+")


def class_name_tokens(name: str) -> FrozenSet[str]:
    """Lower-case tokens a receiver could plausibly use for a class:
    ``MetadataLog`` → {metadata, log, metadatalog}."""
    pieces = [p.lower() for p in _CAMEL_RE.findall(name)]
    return frozenset(pieces) | {name.lower()}


def receiver_name_tokens(text: Optional[str]) -> FrozenSet[str]:
    """Normalized identifier tokens of a rendered receiver, with naive
    de-pluralization (``self._events`` → {events, event}).  snake_case
    splits into its words plus the joined form, so ``self.metadata_log``
    can match ``MetadataLog``'s tokens."""
    if not text:
        return frozenset()
    out: Set[str] = set()
    for token in _TOKEN_RE.findall(text):
        token = token.lower().lstrip("_")
        if not token or token in ("self", "cls"):
            continue
        words = [w for w in token.split("_") if w]
        for word in words + ["".join(words)]:
            out.add(word)
            if word.endswith("s") and len(word) > 2:
                out.add(word[:-1])
    return frozenset(out)


def _receiver_root(expr: ast.expr) -> Optional[str]:
    """Left-most name of an attribute chain (``a.b.c`` → ``a``)."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


# ----------------------------------------------------------------------
# Phase A: one summary walk per function


_TRY_NODES = tuple(
    getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name)
)
_MATCH_NODE = getattr(ast, "Match", ())


def _unparse(expr: ast.AST) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on exprs
        return "<expr>"


def _dotted_tail(expr: Optional[ast.expr]) -> Optional[str]:
    """``X`` for ``X`` or ``pkg.X`` — how classes are named name-wise."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _annotation_class(ann: Optional[ast.expr]) -> Optional[str]:
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.split(".")[-1].strip() or None
    return _dotted_tail(ann)  # Optional[X] / list[X] and the rest: skip


def _handler_names(handler: ast.ExceptHandler) -> FrozenSet[str]:
    if handler.type is None:
        return frozenset({"BaseException"})
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return frozenset(
        name for name in map(_dotted_tail, types) if name is not None
    )


def _merge_envs(
    a: Dict[str, Set[Node]], b: Dict[str, Set[Node]]
) -> Dict[str, Set[Node]]:
    merged: Dict[str, Set[Node]] = {k: set(v) for k, v in a.items()}
    for key, nodes in b.items():
        merged.setdefault(key, set()).update(nodes)
    return merged


class _Summarizer:
    """Walks one function body once into its :class:`FunctionSummary`.

    A flow-sensitive abstract interpreter that also records, as it goes,
    every intrinsic effect site and the exception names caught around
    each call.  Assignments are strong updates, aug-assigns weak ones;
    tuple unpacking binds element-wise when the shapes match; branches and
    ``match`` cases merge by union; loop bodies run twice so loop-carried
    flow is seen (their sites are recorded on the first pass only);
    ``except X as e`` kills then rebinds; comprehensions bind their
    generator targets; writes to ``self.attr`` land in a per-attribute
    *cell* that the taint engine links across the methods of a class.

    Class bodies, lambda bodies and ``match`` case bodies run in this
    function (lambda bodies as a documented over-approximation); class
    and lambda bindings do not leak into its environment.  A nested def is
    its own summary: here only its decorators and defaults are evaluated,
    in this scope, where they run.
    """

    def __init__(
        self,
        summary: FunctionSummary,
        scope: FunctionNode,
        args: Optional[ast.arguments],
        imports: ImportMap,
        local_classes: Mapping[str, object],
    ) -> None:
        self.summary = summary
        self.module = summary.module
        self.imports = imports
        self.local_classes = local_classes
        self.method_cls = scope.method_cls
        params = summary.param_names
        self.self_name = params[0] if scope.cls is not None and params else None
        self.annotations: Dict[str, str] = {}
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                ann = _annotation_class(arg.annotation)
                if ann is not None:
                    self.annotations[arg.arg] = ann
        self.globals_declared: Set[str] = set()
        #: Names caught by the ``try`` bodies enclosing the current node.
        self.caught: FrozenSet[str] = frozenset()
        #: False while a loop body is re-run: each site is recorded once.
        self.recording = True
        self.env: Dict[str, Set[Node]] = {}
        self.must: Set[str] = set()
        for name in params + summary.kwonly_names + (
            summary.vararg, summary.kwarg
        ):
            if name:
                self.env[name] = {("param", name)}

    # -- plumbing ------------------------------------------------------

    def _edge(self, src: Node, dst: Node) -> None:
        self.summary.succ.setdefault(src, set()).add(dst)

    def _edges(self, srcs: Set[Node], dst: Node) -> None:
        # repro: allow[SIM003] edges land in a set; union order cannot matter
        for src in srcs:
            self._edge(src, dst)

    def _snapshot(self) -> Dict[str, Set[Node]]:
        return {k: set(v) for k, v in self.env.items()}

    def _add(
        self,
        node: ast.AST,
        atom: Atom,
        text: str,
        caught: FrozenSet[str] = frozenset(),
    ) -> None:
        if self.recording:
            self.summary.intrinsics.append(
                IntrinsicSite(atom, node.lineno, node.col_offset, text, caught)
            )

    # -- expressions ---------------------------------------------------

    def eval(self, node: Optional[ast.expr]) -> Set[Node]:
        if node is None or isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attr(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            obj: Node = ("obj", node.lineno, node.col_offset)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._edges(self.eval(child), obj)
            return {obj}
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.Subscript):
            out = self.eval(node.value)
            self.eval(node.slice)
            return out
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                self.eval(part)
            return set()
        if isinstance(node, ast.NamedExpr):
            nodes = self.eval(node.value)
            self.bind(node.target, nodes)
            return nodes
        if isinstance(node, ast.Yield):
            self._edges(self.eval(node.value), RETURN)
            return set()
        if isinstance(node, ast.Lambda):
            self._eval_lambda(node)
            return set()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._eval_comp(node, [node.key, node.value])
        # Operators, f-strings, starred, await: the union of the operands.
        out: Set[Node] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.eval(child)
        return out

    def _eval_comp(self, node: ast.expr, elts: Sequence[ast.expr]) -> Set[Node]:
        saved = self._snapshot()
        for gen in node.generators:  # type: ignore[attr-defined]
            self.bind(gen.target, self.eval(gen.iter))
            for cond in gen.ifs:
                self.eval(cond)
        obj: Node = ("obj", node.lineno, node.col_offset)
        for elt in elts:
            self._edges(self.eval(elt), obj)
        self.env = saved
        return {obj}

    def _eval_lambda(self, node: ast.Lambda) -> None:
        args = node.args
        for default in args.defaults + [d for d in args.kw_defaults if d]:
            self.eval(default)
        saved, must = self._snapshot(), set(self.must)
        for arg in ast.walk(args):
            if isinstance(arg, ast.arg):
                self.env.pop(arg.arg, None)
        self.eval(node.body)
        self.env, self.must = saved, must  # the body may never run

    def _eval_attr(self, node: ast.Attribute) -> Set[Node]:
        base_text = _unparse(node.value)
        base_nodes = self.eval(node.value)
        attr_node: Node = (
            "attr", base_text, node.attr, node.lineno, node.col_offset
        )
        self.summary.attr_reads.append(
            (base_text, node.attr, node.lineno, node.col_offset)
        )
        self._edges(base_nodes, attr_node)
        if self.self_name is not None and base_text == self.self_name:
            self._edge(("cell", node.attr), attr_node)
        return {attr_node}

    def _eval_call(self, node: ast.Call) -> Set[Node]:
        if self.caught and self.recording:
            anchor = (node.lineno, node.col_offset)
            catches = self.summary.call_catches
            catches[anchor] = catches.get(anchor, frozenset()) | self.caught
        func = node.func
        # The Call node's own position is the start of the whole receiver
        # chain, shared by every link of ``x.f().g()``; the end of the
        # callee expression is unique per link.
        key = (
            func.end_lineno or node.lineno,
            func.end_col_offset or node.col_offset,
        )
        receiver_text: Optional[str] = None
        receiver_nodes: Set[Node] = set()
        if isinstance(func, ast.Attribute):
            callee_name = func.attr
            receiver_text = _unparse(func.value)
            self._classify_attr_call(node, func, receiver_text)
            receiver_nodes = self.eval(func.value)
        elif isinstance(func, ast.Name):
            callee_name = func.id
            self._classify_bare_call(node, func.id)
        else:
            # A call on a call result: nothing nameable — taint flows
            # through arguments conservatively.
            self.eval(func)
            out: Set[Node] = set()
            for arg in node.args:
                out |= self.eval(arg)
            for kw in node.keywords:
                out |= self.eval(kw.value)
            return out
        none_args: List[object] = []
        kwnames: List[str] = []
        for i, arg in enumerate(node.args):
            arg_node: Node = ("arg", key[0], key[1], i)
            self._edges(self.eval(arg), arg_node)
            if isinstance(arg, ast.Constant) and arg.value is None:
                none_args.append(i)
            if callee_name in _PUSH_METHODS:
                # ``acc.append(x)`` pushes x into the object acc holds.
                # repro: allow[SIM003] edges land in a set; union order cannot matter
                for recv in receiver_nodes:
                    self._edge(arg_node, recv)
        for kw in node.keywords:
            pos: object = f"kw:{kw.arg}" if kw.arg else "kw:**"
            arg_node = ("arg", key[0], key[1], pos)
            self._edges(self.eval(kw.value), arg_node)
            if kw.arg:
                kwnames.append(kw.arg)
                if isinstance(kw.value, ast.Constant) and kw.value.value is None:
                    none_args.append(pos)
        if receiver_text is not None:
            self._edges(receiver_nodes, ("recv", key[0], key[1]))
        must = frozenset(self.must)
        prev = self.summary.calls.get(key)
        if prev is None:
            self.summary.calls[key] = LocalCall(
                lineno=key[0],
                col=key[1],
                anchor_lineno=node.lineno,
                anchor_col=node.col_offset,
                callee_name=callee_name,
                receiver=receiver_text,
                nargs=len(node.args),
                kwnames=tuple(kwnames),
                none_args=tuple(none_args),
                must_before=must,
            )
        else:
            # Loop bodies run twice: only calls on *every* path count.
            prev.must_before = prev.must_before & must
        self.must.add(callee_name)
        return {("ret", key[0], key[1])}

    # -- intrinsic call sites ------------------------------------------

    def _classify_bare_call(self, node: ast.Call, name: str) -> None:
        if name in ("open", "input", "print", "breakpoint"):
            self._add(node, REAL_IO, f"{name}(...)")
            return
        origin = self.imports.member_origin(name)
        if origin is None:
            return
        module, member = origin
        if module == "time" and member in _TIME_WALLCLOCK:
            self._add(node, WALLCLOCK, f"time.{member}(...)")
        elif module == "random" and (
            member in _RANDOM_FUNCS or member == "SystemRandom"
        ):
            self._add(node, GLOBAL_RANDOM, f"random.{member}(...)")
        elif module == "os" and member in _OS_IO:
            self._add(node, REAL_IO, f"os.{member}(...)")
        elif module == "os" and member == "urandom":
            self._add(node, GLOBAL_RANDOM, "os.urandom(...)")
            self._add(node, REAL_IO, "os.urandom(...)")
        elif module == "os.path" and member in _OSPATH_IO:
            self._add(node, REAL_IO, f"os.path.{member}(...)")
        elif module == "subprocess" and member in _SUBPROCESS_IO:
            self._add(node, REAL_IO, f"subprocess.{member}(...)")
        elif module == "socket" and member in _SOCKET_MODULE:
            self._add(node, NETWORK_SEND, f"socket.{member}(...)")
            self._add(node, REAL_IO, f"socket.{member}(...)")
        elif module == "urllib.request" and member == "urlopen":
            self._add(node, NETWORK_SEND, "urllib.request.urlopen(...)")
            self._add(node, REAL_IO, "urllib.request.urlopen(...)")

    def _classify_attr_call(
        self, node: ast.Call, func: ast.Attribute, recv_text: str
    ) -> None:
        name = func.attr
        recv = func.value
        root = _receiver_root(recv)
        recv_module = None
        if root is not None:
            recv_module = self.imports.module_of(root)
            if recv_module is None and root in (
                "time", "random", "os", "socket", "subprocess", "datetime",
                "shutil", "requests", "urllib",
            ):
                recv_module = root
        # stdlib modules by receiver
        if recv_module == "time" and name in _TIME_WALLCLOCK:
            self._add(node, WALLCLOCK, f"{recv_text}.{name}(...)")
        elif name in _DATETIME_NOW and (
            root == "datetime" or recv_text in ("datetime", "dt", "date")
        ):
            self._add(node, WALLCLOCK, f"{recv_text}.{name}(...)")
        elif recv_module == "random" and recv_text == root and (
            name in _RANDOM_FUNCS or name == "SystemRandom"
        ):
            # Only the module itself: ``rng.shuffle`` on a seeded
            # ``random.Random`` instance is deterministic and fine.
            self._add(node, GLOBAL_RANDOM, f"random.{name}(...)")
        elif recv_module == "os" and recv_text in ("os", root) and (
            name in _OS_IO or name == "urandom"
        ):
            if name == "urandom":
                self._add(node, GLOBAL_RANDOM, "os.urandom(...)")
            self._add(node, REAL_IO, f"os.{name}(...)")
        elif recv_text == "os.path" and name in _OSPATH_IO:
            self._add(node, REAL_IO, f"os.path.{name}(...)")
        elif recv_module == "subprocess" and name in _SUBPROCESS_IO:
            self._add(node, REAL_IO, f"subprocess.{name}(...)")
        elif recv_module == "socket" and name in _SOCKET_MODULE:
            self._add(node, NETWORK_SEND, f"socket.{name}(...)")
            self._add(node, REAL_IO, f"socket.{name}(...)")
        elif recv_module == "requests" and name in _REQUESTS_VERBS:
            self._add(node, NETWORK_SEND, f"requests.{name}(...)")
            self._add(node, REAL_IO, f"requests.{name}(...)")
        elif name == "urlopen":
            self._add(node, NETWORK_SEND, f"{recv_text}.urlopen(...)")
            self._add(node, REAL_IO, f"{recv_text}.urlopen(...)")
        elif name in _PATHLIB_IO:
            self._add(node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in _SOCKET_SEND:
            self._add(node, NETWORK_SEND, f"{recv_text}.{name}(...)")
            self._add(node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in ("write", "flush") and root == "sys":
            self._add(node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in _PROJECT_SEND and recv_text not in ("self", "cls"):
            self._add(node, NETWORK_SEND, f"{recv_text}.{name}(...)")
        # in-place container mutation through a trackable receiver
        if name in _MUTATOR_METHODS:
            owner = self._mutation_owner(recv)
            if owner is not None:
                self._add(node, mutates(owner), f"{recv_text}.{name}(...)")

    # -- mutations and raises ------------------------------------------

    def _record_mutation(self, target: ast.expr, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_mutation(elt, stmt)
            return
        if isinstance(target, ast.Starred):
            self._record_mutation(target.value, stmt)
            return
        # unwrap subscripts: ``x.attr[k] = v`` mutates ``x.attr``
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            owner = self._mutation_owner(node.value, attr=node.attr)
            if owner is not None:
                self._add(stmt, mutates(owner), f"{_unparse(node)} =")
        elif isinstance(node, ast.Name) and node.id in self.globals_declared:
            self._add(
                stmt, mutates(f"{self.module}:<globals>"), f"global {node.id} ="
            )

    def _mutation_owner(
        self, recv: ast.expr, attr: Optional[str] = None
    ) -> Optional[str]:
        """Owner of a mutation through receiver ``recv``.

        Tiers, most precise first: ``self``/``cls`` → the enclosing class;
        an annotated parameter → the annotation's class; a receiver whose
        text contains the token ``state`` with a known metadata attribute
        → ``BootstrapState`` by convention.  Locals are unprovable and
        yield None (a local list is not shared state).
        """
        root = _receiver_root(recv)
        recv_text = _unparse(recv)
        if root is not None and (
            root in ("self", "cls") or root == self.self_name
        ):
            if self.method_cls is None:
                return None
            # ``self.state.peers[...] = ...`` is still the bootstrap's
            # metadata, not merely "some attribute of mine".
            if attr in _METADATA_ATTRS and _STATE_TOKEN_RE.search(recv_text):
                return self._resolve_class_owner("BootstrapState")
            return f"{self.module}:{self.method_cls}"
        if root is not None and root in self.annotations:
            return self._resolve_class_owner(self.annotations[root])
        if attr in _METADATA_ATTRS and _STATE_TOKEN_RE.search(recv_text):
            return self._resolve_class_owner("BootstrapState")
        return None

    def _resolve_class_owner(self, class_name: str) -> str:
        if class_name in self.local_classes:
            return f"{self.module}:{class_name}"
        origin = self.imports.member_origin(class_name)
        if origin is not None:
            return f"{origin[0]}:{origin[1]}"
        return f":{class_name}"

    def _record_raise(self, stmt: ast.Raise) -> None:
        exc = stmt.exc  # None: a bare re-raise, already propagating
        name = _dotted_tail(exc.func if isinstance(exc, ast.Call) else exc)
        if name is not None:
            self._add(stmt, raises(name), f"raise {name}", caught=self.caught)

    # -- binding -------------------------------------------------------

    def bind(
        self, target: ast.expr, nodes: Set[Node], weak: bool = False
    ) -> None:
        if isinstance(target, ast.Name):
            if weak:
                self.env[target.id] = self.env.get(target.id, set()) | set(nodes)
            else:
                self.env[target.id] = set(nodes)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, nodes, weak=weak)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, nodes, weak=weak)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if (
                self.self_name is not None
                and isinstance(base, ast.Name)
                and base.id == self.self_name
            ):
                self._edges(nodes, ("cell", target.attr))
            else:
                # Writing into an object taints the object (smashed).
                for base_node in self.eval(base):
                    self._edges(nodes, base_node)
        elif isinstance(target, ast.Subscript):
            for base_node in self.eval(target.value):
                self._edges(nodes, base_node)
            self.eval(target.slice)

    def _exec_assign(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        # Element-wise precision: ``a, b = x, y`` binds a←x, b←y rather
        # than smashing both sides together.
        if (
            isinstance(value, (ast.Tuple, ast.List))
            and all(isinstance(t, (ast.Tuple, ast.List)) for t in targets)
            and all(
                len(t.elts) == len(value.elts)  # type: ignore[attr-defined]
                and not any(isinstance(e, ast.Starred) for e in t.elts)  # type: ignore[attr-defined]
                for t in targets
            )
        ):
            elt_nodes = [self.eval(elt) for elt in value.elts]
            for target in targets:
                for sub, nodes in zip(target.elts, elt_nodes):  # type: ignore[attr-defined]
                    self.bind(sub, nodes)
            return
        nodes = self.eval(value)
        for target in targets:
            self.bind(target, nodes)

    # -- statements ----------------------------------------------------

    def exec_body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.Delete)):
            for target in stmt.targets:
                self._record_mutation(target, stmt)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign, ast.For,
                               ast.AsyncFor)):
            self._record_mutation(stmt.target, stmt)
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            nodes = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                nodes |= self.env.get(stmt.target.id, set())
            self.bind(stmt.target, nodes, weak=True)
        elif isinstance(stmt, ast.Return):
            self._edges(self.eval(stmt.value), RETURN)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exec_loop(stmt.body, stmt.orelse, stmt)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._exec_loop(stmt.body, stmt.orelse, None)
        elif isinstance(stmt, _TRY_NODES):
            self._exec_try(stmt)  # type: ignore[arg-type]
        elif isinstance(stmt, _MATCH_NODE):
            self._exec_match(stmt)  # type: ignore[arg-type]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                nodes = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, nodes)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Raise):
            self._record_raise(stmt)
            self.eval(stmt.exc)
            self.eval(stmt.cause)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
                else:
                    self.eval(target)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = stmt.args
            for expr in stmt.decorator_list + args.defaults + [
                d for d in args.kw_defaults if d is not None
            ]:
                self.eval(expr)
            self.env[stmt.name] = set()
        elif isinstance(stmt, ast.ClassDef):
            for expr in stmt.decorator_list + stmt.bases + [
                kw.value for kw in stmt.keywords
            ]:
                self.eval(expr)
            # The body runs now, in this function; its bindings are the
            # class's attributes, not this function's locals.
            saved = self._snapshot()
            self.exec_body(stmt.body)
            self.env = saved
            self.env[stmt.name] = set()
        elif isinstance(stmt, ast.Global):
            self.globals_declared.update(stmt.names)
        else:  # Expr, Assert and the rest: evaluate what they hold
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def _exec_if(self, stmt: ast.If) -> None:
        self.eval(stmt.test)
        env0, must0 = self._snapshot(), set(self.must)
        self.exec_body(stmt.body)
        env1, must1 = self.env, self.must
        self.env, self.must = env0, must0
        self.exec_body(stmt.orelse)
        self.env = _merge_envs(env1, self.env)
        self.must = must1 & self.must

    def _exec_match(self, stmt: ast.stmt) -> None:
        subject = self.eval(stmt.subject)  # type: ignore[attr-defined]
        env0, must0 = self._snapshot(), set(self.must)
        merged = env0  # no case matched
        for case in stmt.cases:  # type: ignore[attr-defined]
            self.env, self.must = {k: set(v) for k, v in env0.items()}, set(must0)
            for pattern in ast.walk(case.pattern):  # capture names
                for name in (getattr(pattern, "name", None),
                             getattr(pattern, "rest", None)):
                    if name:
                        self.env[name] = set(subject)
            self.eval(case.guard)
            self.exec_body(case.body)
            merged = _merge_envs(merged, self.env)
        self.env, self.must = merged, must0

    def _exec_loop(
        self,
        body: Sequence[ast.stmt],
        orelse: Sequence[ast.stmt],
        for_stmt: Optional[ast.stmt],
    ) -> None:
        iter_nodes: Set[Node] = set()
        if for_stmt is not None:
            iter_nodes = self.eval(for_stmt.iter)  # type: ignore[attr-defined]
        must0, recording = set(self.must), self.recording
        # Two passes propagate loop-carried flow (x of iteration N used
        # at iteration N+1); envs merge by union so nothing is lost.
        for _ in range(2):
            if for_stmt is not None:
                self.bind(for_stmt.target, iter_nodes, weak=True)  # type: ignore[attr-defined]
            before = self._snapshot()
            self.exec_body(body)
            self.env = _merge_envs(self.env, before)
            self.recording = False
        self.must, self.recording = must0, recording  # the body may never run
        self.exec_body(orelse)

    def _exec_try(self, stmt: ast.Try) -> None:
        env0, must0, outer = self._snapshot(), set(self.must), self.caught
        # Only the body is guarded: not ``else``, handlers or ``finally``.
        for handler in stmt.handlers:
            self.caught = self.caught | _handler_names(handler)
        self.exec_body(stmt.body)
        self.caught = outer
        self.exec_body(stmt.orelse)
        # A handler can observe any prefix of the body's effects.
        handler_base = _merge_envs(self.env, env0)
        out_envs = [self._snapshot()]
        body_must = set(self.must)
        for handler in stmt.handlers:
            self.env = {k: set(v) for k, v in handler_base.items()}
            self.eval(handler.type)
            if handler.name:
                self.env[handler.name] = set()  # ``as e`` rebinds, kills
            self.exec_body(handler.body)
            if handler.name:
                self.env.pop(handler.name, None)  # unbound past the handler
            out_envs.append(self._snapshot())
        merged = out_envs[0]
        for env in out_envs[1:]:
            merged = _merge_envs(merged, env)
        self.env = merged
        # With no handlers (try/finally) the body completed or we are
        # unwinding; otherwise a handler may have swallowed mid-body.
        self.must = body_must if not stmt.handlers else must0
        self.exec_body(stmt.finalbody)


def summarize_module(module_name: str, tree: ast.Module) -> Dict[str, object]:
    """Phase A for one module, the cacheable payload: a
    :class:`FunctionSummary` per scope of :func:`iter_scopes` and the
    name-wise bases of every class the module defines."""
    imports = ImportMap(tree)
    class_bases: Dict[str, Tuple[str, ...]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            class_bases[node.name] = tuple(
                name for name in map(_dotted_tail, node.bases) if name
            )
    functions: Dict[str, FunctionSummary] = {}
    for scope, node in iter_scopes(module_name, tree):
        args: Optional[ast.arguments] = getattr(node, "args", None)
        summary = FunctionSummary(
            qualname=scope.qualname,
            module=module_name,
            name=scope.name,
            cls=scope.cls,
            lineno=scope.lineno,
            param_names=tuple(
                a.arg for a in (args.posonlyargs + args.args if args else ())
            ),
            kwonly_names=tuple(a.arg for a in (args.kwonlyargs if args else ())),
            vararg=args.vararg.arg if args and args.vararg else None,
            kwarg=args.kwarg.arg if args and args.kwarg else None,
        )
        _Summarizer(summary, scope, args, imports, class_bases).exec_body(
            node.body  # type: ignore[attr-defined]
        )
        functions[scope.qualname] = summary
    return {"functions": functions, "class_bases": class_bases}


def _payload_ok(payload: object) -> bool:
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("functions"), dict)
        and isinstance(payload.get("class_bases"), dict)
        and all(
            isinstance(v, FunctionSummary)
            for v in payload["functions"].values()  # type: ignore[index]
        )
    )


def compute_summaries(
    graph: ProjectGraph,
) -> Tuple[Dict[str, FunctionSummary], Dict[str, FrozenSet[str]]]:
    """Phase A over every module: ``(summaries, class_bases)``, memoized on
    the graph and persisted per module in the shared AST cache under
    :data:`SUMMARY_TAG`."""
    if "summaries" in graph.memo:
        return graph.memo["summaries"]  # type: ignore[return-value]
    cache = graph.ast_cache
    functions: Dict[str, FunctionSummary] = {}
    class_bases: Dict[str, Set[str]] = {}
    for name in sorted(graph.modules):
        mod = graph.modules[name]
        source = "\n".join(mod.lines)
        payload = None
        if cache is not None:
            loaded = cache.load_aux(source, SUMMARY_TAG)
            if _payload_ok(loaded):
                payload = loaded
        if payload is None:
            payload = summarize_module(mod.name, mod.tree)
            if cache is not None:
                cache.store_aux(source, SUMMARY_TAG, payload)
        functions.update(payload["functions"])  # type: ignore[index]
        for cls, bases in payload["class_bases"].items():  # type: ignore[union-attr]
            class_bases.setdefault(cls, set()).update(bases)
    result = (
        functions,
        {cls: frozenset(bases) for cls, bases in class_bases.items()},
    )
    graph.memo["summaries"] = result
    return result


# ----------------------------------------------------------------------
# Phase B: the SCC fixpoint


@dataclass(frozen=True)
class _PropEdge:
    callee: str
    lineno: int
    caught: FrozenSet[str]


@dataclass(frozen=True)
class EffectSignature:
    """One function's inferred effects, rule- and report-facing."""

    wallclock: bool = False
    global_random: bool = False
    real_io: bool = False
    network_send: bool = False
    mutates: Tuple[str, ...] = ()
    raises: Tuple[str, ...] = ()

    @property
    def pure(self) -> bool:
        """No observable side effects.  Raising is control flow, not an
        effect — a pure evaluator may still raise on malformed input."""
        return not (
            self.wallclock
            or self.global_random
            or self.real_io
            or self.network_send
            or self.mutates
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "wallclock": self.wallclock,
            "global_random": self.global_random,
            "real_io": self.real_io,
            "network_send": self.network_send,
            "mutates": list(self.mutates),
            "raises": list(self.raises),
        }

    def render(self) -> str:
        parts: List[str] = []
        for kind in ("wallclock", "global_random", "real_io", "network_send"):
            if getattr(self, kind):
                parts.append(kind)
        for owner in self.mutates:
            parts.append(f"mutates({owner_class(owner)})")
        for exc in self.raises:
            parts.append(f"raises({exc})")
        return "{" + ", ".join(parts) + "}" if parts else "pure"

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "EffectSignature":
        kinds = {"wallclock": False, "global_random": False,
                 "real_io": False, "network_send": False}
        muts: Set[str] = set()
        excs: Set[str] = set()
        for atom in atoms:
            if atom[0] in kinds:
                kinds[atom[0]] = True
            elif atom[0] == "mutates":
                muts.add(atom[1])
            elif atom[0] == "raises":
                excs.add(atom[1])
        return cls(
            mutates=tuple(sorted(muts)), raises=tuple(sorted(excs)), **kinds
        )


PURE_SIGNATURE = EffectSignature()

#: Witness hop: (function qualname, line of the call/intrinsic, note).
WitnessHop = Tuple[str, int, str]


class EffectInference:
    """The fixpoint engine, built once per analysis run."""

    def __init__(
        self,
        graph: ProjectGraph,
        bases: Dict[str, FunctionSummary],
        class_bases: Dict[str, FrozenSet[str]],
    ) -> None:
        self.graph = graph
        self.bases = bases
        self.class_bases = class_bases
        #: caller -> propagation edges, sorted by (lineno, callee).
        self.calls: Dict[str, List[_PropEdge]] = {}
        self._build_edges()
        self.atoms: Dict[str, FrozenSet[Atom]] = {}
        self._infer()

    @classmethod
    def for_graph(cls, graph: ProjectGraph) -> "EffectInference":
        """The per-run engine, shared by every effect rule via the
        graph's memo (one extraction + one fixpoint per analysis run)."""
        if "effect_inference" not in graph.memo:
            graph.memo["effect_inference"] = cls(
                graph, *compute_summaries(graph)
            )
        return graph.memo["effect_inference"]  # type: ignore[return-value]

    # -- edges ---------------------------------------------------------

    def _build_edges(self) -> None:
        staged: Dict[str, Dict[Tuple[int, str], FrozenSet[str]]] = {}
        for site in self.graph.call_sites:
            base = self.bases.get(site.caller)
            caught = frozenset()
            if base is not None:
                caught = base.call_catches.get(
                    (site.lineno, site.col), frozenset()
                )
            targets: Set[str] = set()
            reliable = site.precise and not site.via_fallback
            for callee in site.resolved:
                if callee not in self.bases:
                    continue
                if reliable or self._receiver_matches(site.receiver, callee):
                    targets.add(callee)
            for ref in site.func_ref_args:
                if ref in self.bases:
                    targets.add(ref)
            if not targets:
                continue
            per_caller = staged.setdefault(site.caller, {})
            for callee in sorted(targets):
                key = (site.lineno, callee)
                prior = per_caller.get(key)
                # Same call repeated on one line under different try
                # scopes: intersect (an exception escapes only if some
                # occurrence lets it).
                per_caller[key] = (
                    caught if prior is None else prior & caught
                )
        for caller in sorted(staged):
            self.calls[caller] = [
                _PropEdge(callee=callee, lineno=lineno, caught=caught)
                for (lineno, callee), caught in sorted(staged[caller].items())
            ]

    def _receiver_matches(
        self, receiver: Optional[str], callee: str
    ) -> bool:
        """Token gate for fallback edges: the rendered receiver must name
        the candidate method's class."""
        info = self.graph.functions.get(callee)
        if info is None or info.cls is None:
            return False
        rtokens = receiver_name_tokens(receiver)
        if not rtokens:
            return False
        return bool(rtokens & class_name_tokens(info.cls))

    # -- fixpoint ------------------------------------------------------

    def _escapes(self, caught: FrozenSet[str], atom: Atom) -> bool:
        """Whether ``atom`` leaves handlers for the names in ``caught``;
        only ``raises`` atoms can be caught."""
        return atom[0] != "raises" or not catches(
            atom[1], caught, self.class_bases
        )

    def _infer(self) -> None:
        edges = {
            qual: [(e.callee, e.caught) for e in calls]
            for qual, calls in self.calls.items()
        }
        self.atoms = solve(
            self.bases,
            edges,
            lambda qual: (
                site.atom
                for site in self.bases[qual].intrinsics
                if self._escapes(site.caught, site.atom)
            ),
            self._escapes,
        )

    # -- queries -------------------------------------------------------

    def signature(self, qual: str) -> EffectSignature:
        atoms = self.atoms.get(qual)
        if not atoms:
            return PURE_SIGNATURE
        return EffectSignature.from_atoms(atoms)

    def all_signatures(self) -> Dict[str, EffectSignature]:
        return {qual: self.signature(qual) for qual in sorted(self.bases)}

    def has_effect(self, qual: str, pred: Callable[[Atom], bool]) -> bool:
        return any(pred(atom) for atom in self.atoms.get(qual, ()))

    def witness(
        self,
        qual: str,
        pred: Callable[[Atom], bool],
        exclude: FrozenSet[str] = frozenset(),
    ) -> Optional[List[WitnessHop]]:
        """A deterministic shortest call chain from ``qual`` to a local
        intrinsic matching ``pred``, or None.

        ``exclude`` names functions the chain may not pass through (used
        by ATOM001 to ask "is there a mutation path *avoiding* the WAL
        reducer?").  Computed after convergence, so iteration order of
        the fixpoint can never change a witness.
        """
        if qual not in self.bases or qual in exclude:
            return None

        def expand(node: str) -> Iterator[Tuple[str, int]]:
            for edge in self.calls.get(node, ()):
                if edge.callee not in exclude and any(
                    pred(a) for a in self.atoms.get(edge.callee, ())
                ):
                    yield edge.callee, edge.lineno

        parent, found = bfs(
            [qual],
            expand,
            goal=lambda node: self._first_intrinsic(node, pred) is not None,
        )
        if found is None:
            return None
        site = self._first_intrinsic(found, pred)
        # Each hop names the line its function calls the next one from.
        path = path_to(parent, found)
        hops: List[WitnessHop] = [
            (node, call_line, f"calls {short_qual(callee)}")
            for (node, _), (callee, call_line) in zip(path, path[1:])
        ]
        hops.append((found, site.lineno, site.text))
        return hops

    def _first_intrinsic(
        self, qual: str, pred: Callable[[Atom], bool]
    ) -> Optional[IntrinsicSite]:
        matches = [s for s in self.bases[qual].intrinsics if pred(s.atom)]
        if not matches:
            return None
        return min(matches, key=lambda s: (s.lineno, s.col, s.text))


def short_qual(qual: str) -> str:
    """``repro.core.metalog:MetadataLog.append`` → ``MetadataLog.append``;
    the module pseudo-function renders as ``module top-level``."""
    module, _, func = qual.partition(":")
    if func == MODULE_SCOPE:
        return f"{module} top-level"
    return func or qual


def dotted_qual(qual: str) -> str:
    """CLI-facing form: ``repro.sim.events:EventQueue.run`` →
    ``repro.sim.events.EventQueue.run``."""
    return qual.replace(":", ".", 1)


def parse_dotted_qual(
    dotted: str, bases: Dict[str, FunctionSummary]
) -> Optional[str]:
    """Accept either the internal ``module:Qual.name`` form or the natural
    dotted form and find the matching function qualname."""
    if dotted in bases:
        return dotted
    if ":" in dotted:
        return None
    # Try every split point, longest module prefix first.
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        candidate = ".".join(parts[:i]) + ":" + ".".join(parts[i:])
        if candidate in bases:
            return candidate
    mod_scope = f"{dotted}:{MODULE_SCOPE}"
    if mod_scope in bases:
        return mod_scope
    return None
