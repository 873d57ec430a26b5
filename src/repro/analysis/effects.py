"""Tier 4: interprocedural effect inference over the project call graph.

The first three tiers answer "what does this line do", "who calls whom",
and "where does this value go".  This tier answers the question the
simulator's event handlers and the executor and vector kernels need:
*what is this function allowed to do at all*.  Every function gets an
inferred effect signature

    {wallclock, global_random, real_io, network_send,
     mutates(owner class, ...), raises(exception, ...)}

seeded from intrinsic tables (``time.monotonic``, ``random.shuffle``,
``open``, ``sock.sendall``, ``network.transfer``, attribute writes, raise
statements) and propagated bottom-up over the strongly-connected
components of the :class:`~repro.analysis.projectgraph.ProjectGraph`
call graph until a fixpoint (:func:`repro.analysis.fixpoint.solve`);
witnesses are shortest call chains (:func:`repro.analysis.fixpoint.bfs`).

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
everything).  All other atoms propagate unconditionally.

Like the dataflow tier, only the *local* per-module extraction
(:class:`EffectBase`) is cached — under :data:`EFFECT_TAG`, beside the
pickled ASTs — because the fixpoint is whole-program and cheap, while
parsing and walking are per-module and dominated by I/O.  RES004 reads
the same bases (handler contexts and ``raise`` sites), so a change to
:class:`EffectBase`'s fields must bump :data:`EFFECT_VERSION`.  Everything
is deterministic: modules, functions, edges, SCCs and witness searches all
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
from repro.analysis.projectgraph import MODULE_SCOPE, ProjectGraph

#: Bump when the extraction format changes; part of the effect-cache tag.
EFFECT_VERSION = 1
#: Aux-cache tag under which per-module effect bases are pickled.
EFFECT_TAG = f"effects{EFFECT_VERSION}"

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


@dataclass
class EffectBase:
    """The cacheable, purely local effect summary of one function.

    Depends only on its module's source text (plus that module's imports),
    never on other modules — the precondition for content-hash caching.
    """

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    lineno: int
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
# Phase A: per-module extraction


class _Extraction:
    """Walks one module's tree into ``{qualname: EffectBase}``.

    Mirrors the graph's scope/qualname logic exactly (module pseudo-
    function, class bodies attributed to the enclosing function scope,
    nested defs as their own scopes with decorators and defaults
    evaluated in the enclosing scope).  Lambda bodies are attributed to
    the enclosing function — a documented over-approximation.
    """

    def __init__(self, module_name: str, tree: ast.Module) -> None:
        self.module = module_name
        self.imports = ImportMap(tree)
        self.functions: Dict[str, EffectBase] = {}
        self.class_bases: Dict[str, Tuple[str, ...]] = {}
        self.local_classes: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self.local_classes.add(node.name)
                bases = []
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.append(base.attr)
                self.class_bases[node.name] = tuple(bases)
        mod_scope = f"{module_name}:{MODULE_SCOPE}"
        self._walk_function(
            qual=mod_scope,
            name=MODULE_SCOPE,
            cls=None,
            lineno=0,
            body=tree.body,
            method_cls=None,
            self_name=None,
            annotations={},
        )

    # -- scope plumbing ------------------------------------------------

    def _walk_function(
        self,
        qual: str,
        name: str,
        cls: Optional[str],
        lineno: int,
        body: Sequence[ast.stmt],
        method_cls: Optional[str],
        self_name: Optional[str],
        annotations: Dict[str, str],
    ) -> None:
        base = EffectBase(
            qualname=qual, module=self.module, name=name, cls=cls,
            lineno=lineno,
        )
        self.functions[qual] = base
        state = _ScopeState(
            base=base,
            method_cls=method_cls,
            self_name=self_name,
            annotations=annotations,
            globals_declared=set(),
        )
        self._visit_block(body, state, cls_path=None, caught=frozenset())

    def _child_qual(
        self, funcname: str, scope: str, cls_path: Optional[str]
    ) -> str:
        # ``cls_path``: the dotted class bodies we are lexically inside
        # (``Outer.Inner``), part of the qualname as in ProjectGraph.
        name = funcname if cls_path is None else f"{cls_path}.{funcname}"
        if scope.endswith(f":{MODULE_SCOPE}"):
            return f"{self.module}:{name}"
        return f"{scope}.{name}"

    def _enter_def(
        self,
        funcdef: ast.AST,
        state: "_ScopeState",
        cls_path: Optional[str],
        caught: FrozenSet[str],
    ) -> None:
        # Decorators, defaults and annotations evaluate at def time, in
        # the *enclosing* scope.
        args = funcdef.args  # type: ignore[attr-defined]
        for expr in list(funcdef.decorator_list) + list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            self._visit_expr(expr, state, caught)
        qual = self._child_qual(
            funcdef.name,  # type: ignore[attr-defined]
            state.base.qualname,
            cls_path,
        )
        params = [a.arg for a in args.posonlyargs + args.args]
        cls = None if cls_path is None else cls_path.rsplit(".", 1)[-1]
        method_cls = cls if cls is not None else state.method_cls
        self_name = params[0] if cls is not None and params else None
        annotations: Dict[str, str] = {}
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            ann = self._annotation_class(arg.annotation)
            if ann is not None:
                annotations[arg.arg] = ann
        self._walk_function(
            qual=qual,
            name=funcdef.name,  # type: ignore[attr-defined]
            cls=cls,
            lineno=funcdef.lineno,  # type: ignore[attr-defined]
            body=funcdef.body,  # type: ignore[attr-defined]
            method_cls=method_cls,
            self_name=self_name,
            annotations=annotations,
        )

    @staticmethod
    def _annotation_class(ann: Optional[ast.expr]) -> Optional[str]:
        if ann is None:
            return None
        if isinstance(ann, ast.Name):
            return ann.id
        if isinstance(ann, ast.Attribute):
            return ann.attr
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return ann.value.split(".")[-1].strip() or None
        if isinstance(ann, ast.Constant) and ann.value is None:
            return None
        if isinstance(ann, ast.Subscript):  # Optional[X] / list[X] — skip
            return None
        return None

    # -- statement walk ------------------------------------------------

    def _visit_block(
        self,
        stmts: Sequence[ast.stmt],
        state: "_ScopeState",
        cls_path: Optional[str],
        caught: FrozenSet[str],
    ) -> None:
        for stmt in stmts:
            self._visit_stmt(stmt, state, cls_path, caught)

    def _visit_stmt(
        self,
        stmt: ast.stmt,
        state: "_ScopeState",
        cls_path: Optional[str],
        caught: FrozenSet[str],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._enter_def(stmt, state, cls_path, caught)
            return
        if isinstance(stmt, ast.ClassDef):
            for expr in list(stmt.decorator_list) + list(stmt.bases) + [
                kw.value for kw in stmt.keywords
            ]:
                self._visit_expr(expr, state, caught)
            # Class bodies execute at definition time in this scope.
            inner = (
                stmt.name if cls_path is None else f"{cls_path}.{stmt.name}"
            )
            self._visit_block(stmt.body, state, inner, caught)
            return
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            names: Set[str] = set()
            for handler in stmt.handlers:
                names |= self._handler_names(handler)
            self._visit_block(stmt.body, state, cls_path, caught | names)
            for handler in stmt.handlers:
                self._visit_block(handler.body, state, cls_path, caught)
            self._visit_block(stmt.orelse, state, cls_path, caught)
            self._visit_block(stmt.finalbody, state, cls_path, caught)
            return
        if isinstance(stmt, ast.If):
            self._visit_expr(stmt.test, state, caught)
            self._visit_block(stmt.body, state, cls_path, caught)
            self._visit_block(stmt.orelse, state, cls_path, caught)
            return
        if isinstance(stmt, ast.While):
            self._visit_expr(stmt.test, state, caught)
            self._visit_block(stmt.body, state, cls_path, caught)
            self._visit_block(stmt.orelse, state, cls_path, caught)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter, state, caught)
            self._record_target_mutation(stmt.target, state, stmt)
            self._visit_block(stmt.body, state, cls_path, caught)
            self._visit_block(stmt.orelse, state, cls_path, caught)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._visit_expr(item.context_expr, state, caught)
            self._visit_block(stmt.body, state, cls_path, caught)
            return
        if hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            self._visit_expr(stmt.subject, state, caught)
            for case in stmt.cases:
                if case.guard is not None:
                    self._visit_expr(case.guard, state, caught)
                self._visit_block(case.body, state, cls_path, caught)
            return
        if isinstance(stmt, ast.Global):
            state.globals_declared.update(stmt.names)
            return
        if isinstance(stmt, ast.Raise):
            self._record_raise(stmt, state, caught)
            if stmt.exc is not None:
                self._visit_expr(stmt.exc, state, caught)
            if stmt.cause is not None:
                self._visit_expr(stmt.cause, state, caught)
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_target_mutation(target, state, stmt)
            self._visit_expr(stmt.value, state, caught)
            return
        if isinstance(stmt, ast.AnnAssign):
            self._record_target_mutation(stmt.target, state, stmt)
            if stmt.value is not None:
                self._visit_expr(stmt.value, state, caught)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_target_mutation(stmt.target, state, stmt)
            self._visit_expr(stmt.value, state, caught)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_target_mutation(target, state, stmt)
            return
        # Return / Expr / Assert / everything else: scan expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr(child, state, caught)

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> Set[str]:
        if handler.type is None:
            return {"BaseException"}
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names: Set[str] = set()
        for t in types:
            if isinstance(t, ast.Name):
                names.add(t.id)
            elif isinstance(t, ast.Attribute):
                names.add(t.attr)
        return names

    # -- expression walk -----------------------------------------------

    def _visit_expr(
        self, expr: ast.expr, state: "_ScopeState", caught: FrozenSet[str]
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._record_call(node, state, caught)

    def _record_call(
        self, node: ast.Call, state: "_ScopeState", caught: FrozenSet[str]
    ) -> None:
        if caught:
            anchor = (node.lineno, node.col_offset)
            state.base.call_catches[anchor] = (
                state.base.call_catches.get(anchor, frozenset()) | caught
            )
        func = node.func
        if isinstance(func, ast.Name):
            self._classify_bare_call(node, func.id, state)
        elif isinstance(func, ast.Attribute):
            self._classify_attr_call(node, func, state)

    def _add(
        self,
        state: "_ScopeState",
        node: ast.AST,
        atom: Atom,
        text: str,
        caught: FrozenSet[str] = frozenset(),
    ) -> None:
        state.base.intrinsics.append(
            IntrinsicSite(
                atom=atom,
                lineno=getattr(node, "lineno", state.base.lineno or 1),
                col=getattr(node, "col_offset", 0),
                text=text,
                caught=caught,
            )
        )

    def _classify_bare_call(
        self, node: ast.Call, name: str, state: "_ScopeState"
    ) -> None:
        if name in ("open", "input", "print", "breakpoint"):
            self._add(state, node, REAL_IO, f"{name}(...)")
            return
        origin = self.imports.member_origin(name)
        if origin is None:
            return
        module, member = origin
        if module == "time" and member in _TIME_WALLCLOCK:
            self._add(state, node, WALLCLOCK, f"time.{member}(...)")
        elif module == "random" and (
            member in _RANDOM_FUNCS or member == "SystemRandom"
        ):
            self._add(state, node, GLOBAL_RANDOM, f"random.{member}(...)")
        elif module == "os" and member in _OS_IO:
            self._add(state, node, REAL_IO, f"os.{member}(...)")
        elif module == "os" and member == "urandom":
            self._add(state, node, GLOBAL_RANDOM, "os.urandom(...)")
            self._add(state, node, REAL_IO, "os.urandom(...)")
        elif module == "os.path" and member in _OSPATH_IO:
            self._add(state, node, REAL_IO, f"os.path.{member}(...)")
        elif module == "subprocess" and member in _SUBPROCESS_IO:
            self._add(state, node, REAL_IO, f"subprocess.{member}(...)")
        elif module == "socket" and member in _SOCKET_MODULE:
            self._add(state, node, NETWORK_SEND, f"socket.{member}(...)")
            self._add(state, node, REAL_IO, f"socket.{member}(...)")
        elif module == "urllib.request" and member == "urlopen":
            self._add(state, node, NETWORK_SEND, "urllib.request.urlopen(...)")
            self._add(state, node, REAL_IO, "urllib.request.urlopen(...)")

    def _classify_attr_call(
        self, node: ast.Call, func: ast.Attribute, state: "_ScopeState"
    ) -> None:
        name = func.attr
        recv = func.value
        try:
            recv_text = ast.unparse(recv)
        except Exception:  # pragma: no cover - unparse is total on exprs
            recv_text = "<expr>"
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
            self._add(state, node, WALLCLOCK, f"{recv_text}.{name}(...)")
        elif name in _DATETIME_NOW and self._is_datetime(root, recv_text):
            self._add(state, node, WALLCLOCK, f"{recv_text}.{name}(...)")
        elif recv_module == "random" and recv_text == root and (
            name in _RANDOM_FUNCS or name == "SystemRandom"
        ):
            # Only the module itself: ``rng.shuffle`` on a seeded
            # ``random.Random`` instance is deterministic and fine.
            self._add(state, node, GLOBAL_RANDOM, f"random.{name}(...)")
        elif recv_module == "os" and recv_text in ("os", root) and (
            name in _OS_IO or name == "urandom"
        ):
            if name == "urandom":
                self._add(state, node, GLOBAL_RANDOM, "os.urandom(...)")
            self._add(state, node, REAL_IO, f"os.{name}(...)")
        elif recv_text == "os.path" and name in _OSPATH_IO:
            self._add(state, node, REAL_IO, f"os.path.{name}(...)")
        elif recv_module == "subprocess" and name in _SUBPROCESS_IO:
            self._add(state, node, REAL_IO, f"subprocess.{name}(...)")
        elif recv_module == "socket" and name in _SOCKET_MODULE:
            self._add(state, node, NETWORK_SEND, f"socket.{name}(...)")
            self._add(state, node, REAL_IO, f"socket.{name}(...)")
        elif recv_module == "requests" and name in _REQUESTS_VERBS:
            self._add(state, node, NETWORK_SEND, f"requests.{name}(...)")
            self._add(state, node, REAL_IO, f"requests.{name}(...)")
        elif name == "urlopen":
            self._add(state, node, NETWORK_SEND, f"{recv_text}.urlopen(...)")
            self._add(state, node, REAL_IO, f"{recv_text}.urlopen(...)")
        elif name in _PATHLIB_IO:
            self._add(state, node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in _SOCKET_SEND:
            self._add(state, node, NETWORK_SEND, f"{recv_text}.{name}(...)")
            self._add(state, node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in ("write", "flush") and root == "sys":
            self._add(state, node, REAL_IO, f"{recv_text}.{name}(...)")
        elif name in _PROJECT_SEND and recv_text not in ("self", "cls"):
            self._add(state, node, NETWORK_SEND, f"{recv_text}.{name}(...)")
        # in-place container mutation through a trackable receiver
        if name in _MUTATOR_METHODS:
            owner = self._mutation_owner(recv, state)
            if owner is not None:
                self._add(
                    state, node, mutates(owner),
                    f"{recv_text}.{name}(...)",
                )

    @staticmethod
    def _is_datetime(root: Optional[str], recv_text: str) -> bool:
        return root == "datetime" or recv_text in ("datetime", "dt", "date")

    # -- mutations -----------------------------------------------------

    def _record_target_mutation(
        self, target: ast.expr, state: "_ScopeState", stmt: ast.stmt
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target_mutation(elt, state, stmt)
            return
        if isinstance(target, ast.Starred):
            self._record_target_mutation(target.value, state, stmt)
            return
        # unwrap subscripts: ``x.attr[k] = v`` mutates ``x.attr``
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            owner = self._mutation_owner(node.value, state, attr=node.attr)
            if owner is not None:
                try:
                    text = f"{ast.unparse(node)} ="
                except Exception:  # pragma: no cover
                    text = f"<expr>.{node.attr} ="
                self._add(state, stmt, mutates(owner), text)
            return
        if isinstance(node, ast.Name) and node.id in state.globals_declared:
            self._add(
                state, stmt,
                mutates(f"{self.module}:<globals>"),
                f"global {node.id} =",
            )

    def _mutation_owner(
        self,
        recv: ast.expr,
        state: "_ScopeState",
        attr: Optional[str] = None,
    ) -> Optional[str]:
        """Owner of a mutation through receiver ``recv``.

        Tiers, most precise first: ``self``/``cls`` → the enclosing class;
        an annotated parameter → the annotation's class; a receiver whose
        text contains the token ``state`` with a known metadata attribute
        → ``BootstrapState`` by convention.  Locals are unprovable and
        yield None (a local list is not shared state).
        """
        root = _receiver_root(recv)
        try:
            recv_text = ast.unparse(recv)
        except Exception:  # pragma: no cover
            recv_text = ""
        if root is not None and (
            root in ("self", "cls") or root == state.self_name
        ):
            if state.method_cls is not None:
                # ``self.state.peers[...] = ...`` is still the bootstrap's
                # metadata, not merely "some attribute of mine".
                if attr in _METADATA_ATTRS and _STATE_TOKEN_RE.search(
                    recv_text
                ):
                    return self._resolve_class_owner("BootstrapState")
                return f"{self.module}:{state.method_cls}"
            return None
        if root is not None and root in state.annotations:
            return self._resolve_class_owner(state.annotations[root])
        if attr in _METADATA_ATTRS and _STATE_TOKEN_RE.search(recv_text):
            return self._resolve_class_owner("BootstrapState")
        if root is None and attr is None:
            return None
        return None

    def _resolve_class_owner(self, class_name: str) -> str:
        if class_name in self.local_classes:
            return f"{self.module}:{class_name}"
        origin = self.imports.member_origin(class_name)
        if origin is not None:
            return f"{origin[0]}:{origin[1]}"
        return f":{class_name}"

    # -- raises --------------------------------------------------------

    def _record_raise(
        self, stmt: ast.Raise, state: "_ScopeState", caught: FrozenSet[str]
    ) -> None:
        exc = stmt.exc
        if exc is None:  # bare re-raise: already propagating from a call
            return
        if isinstance(exc, ast.Call):
            exc = exc.func
        name = None
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name is not None:
            self._add(
                state, stmt, raises(name), f"raise {name}", caught=caught
            )


@dataclass
class _ScopeState:
    base: EffectBase
    method_cls: Optional[str]
    self_name: Optional[str]
    annotations: Dict[str, str]
    globals_declared: Set[str]


def extract_module_effects(
    module_name: str, tree: ast.Module
) -> Dict[str, object]:
    """Phase A for one module: the cacheable payload."""
    extraction = _Extraction(module_name, tree)
    return {
        "functions": extraction.functions,
        "class_bases": extraction.class_bases,
    }


def _payload_ok(payload: object) -> bool:
    return (
        isinstance(payload, dict)
        and isinstance(payload.get("functions"), dict)
        and isinstance(payload.get("class_bases"), dict)
        and all(
            isinstance(v, EffectBase)
            for v in payload["functions"].values()  # type: ignore[index]
        )
    )


def compute_effect_bases(
    graph: ProjectGraph,
) -> Tuple[Dict[str, EffectBase], Dict[str, FrozenSet[str]]]:
    """Phase A over every module, memoized on the graph and persisted per
    module in the shared AST cache under :data:`EFFECT_TAG`."""
    memo = getattr(graph, "memo", None)
    if memo is not None and "effect_bases" in memo:
        return memo["effect_bases"]
    cache = getattr(graph, "ast_cache", None)
    functions: Dict[str, EffectBase] = {}
    class_bases: Dict[str, Set[str]] = {}
    for name in sorted(graph.modules):
        mod = graph.modules[name]
        source = "\n".join(mod.lines)
        payload = None
        if cache is not None:
            loaded = cache.load_aux(source, EFFECT_TAG)
            if _payload_ok(loaded):
                payload = loaded
        if payload is None:
            payload = extract_module_effects(mod.name, mod.tree)
            if cache is not None:
                cache.store_aux(source, EFFECT_TAG, payload)
        functions.update(payload["functions"])  # type: ignore[index]
        for cls, bases in payload["class_bases"].items():  # type: ignore[union-attr]
            class_bases.setdefault(cls, set()).update(bases)
    result = (
        functions,
        {cls: frozenset(bases) for cls, bases in class_bases.items()},
    )
    if memo is not None:
        memo["effect_bases"] = result
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
        bases: Dict[str, EffectBase],
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
        memo = getattr(graph, "memo", None)
        if memo is not None and "effect_inference" in memo:
            return memo["effect_inference"]
        bases, class_bases = compute_effect_bases(graph)
        engine = cls(graph, bases, class_bases)
        if memo is not None:
            memo["effect_inference"] = engine
        return engine

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
    dotted: str, bases: Dict[str, EffectBase]
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
