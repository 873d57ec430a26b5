"""Per-layer tracing from outside the program.

The benchmark replaces public functions of each layer with timing
wrappers for the duration of a traced run and restores them afterwards;
nothing under ``src/`` knows about it.  Every wrapped call is a span on one
stack.  A layer's *self time* is its spans' durations minus the time spent
in child spans, so self times never double count, and the time of a root
span (one request, or one set-up) not covered by any layer is reported as
``unattributed``.

Functions imported by name into other modules (``parse``,
``records_byte_size``, ``build_filter``, ``fingerprint_tuple``) are
replaced at every import site found in the loaded ``repro`` modules.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

from repro.core.access_control import AccessController
from repro.core.adaptive import AdaptiveEngine
from repro.core.bloom import BloomFilter, build_filter
from repro.core.engine_basic import BasicEngine
from repro.core.engine_mapreduce import BestPeerMapReduceEngine
from repro.core.engine_parallel import ParallelP2PEngine
from repro.core.fingerprint import fingerprint_tuple
from repro.core.indexer import DataIndexer
from repro.core.loader import DataLoader
from repro.core.network import BestPeerNetwork
from repro.core.peer import NormalPeer
from repro.core.resilience import ResilienceContext
from repro.hadoopdb.sms import SmsPlanner
from repro.mapreduce.engine import MapReduceEngine, records_byte_size
from repro.serving.frontdoor import ServingFrontDoor
from repro.sim.network import SimNetwork
from repro.sqlengine.database import Database, QueryResult
from repro.sqlengine.parser import parse
from repro.sqlengine.schema import TableSchema
from repro.sqlengine.table import MemTable

ROOT = "unattributed"


class Tracer:
    """A span stack plus per-layer self time and counters."""

    def __init__(self) -> None:
        # Each frame is [layer, child_seconds].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.total_s = 0.0
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def root(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` as one root span (a request or a set-up)."""
        if self.stack:
            raise RuntimeError("a root span cannot nest")
        frame = [ROOT, 0.0]
        self.stack.append(frame)
        started = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - started
            self.stack.pop()
            if self.stack:
                raise RuntimeError("a span leaked out of its root")
            self.total_s += elapsed
            self.self_s[ROOT] += elapsed - frame[1]

    def wrap(self, layer: str, fn: Callable, observe=None) -> Callable:
        """A span around ``fn``.

        A call made from inside the same layer is a nested span: its time
        still leaves the parent's self time, but it does not count as a
        call, and ``observe(args, kwargs, result)`` (which records the
        layer's counts, inside the span) runs only for outermost calls.
        """
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if outer:
                    calls[layer] += 1
                    if observe is not None:
                        observe(args, kwargs, result)
                return result
            finally:
                elapsed = clock() - started
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def patch_attr(self, owner: object, name: str, replacement) -> None:
        original = vars(owner)[name]
        setattr(owner, name, replacement)
        self._restore.append(lambda: setattr(owner, name, original))

    def patch_method(self, cls: type, name: str, layer: str, observe=None):
        self.patch_attr(cls, name, self.wrap(layer, cls.__dict__[name], observe))

    def patch_function(self, fn: Callable, layer: str, observe=None) -> None:
        """Replace ``fn`` at every ``repro`` module that bound its name."""
        traced = self.wrap(layer, fn, observe)
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    counts = tracer.counts

    def count(name: str, amount: float) -> None:
        counts[name] += amount

    tracer.patch_function(parse, "parser")
    tracer.patch_method(SmsPlanner, "compile", "sms")

    def on_locate(args, kwargs, lookup):
        count("indexer.hops", lookup.hops)
        count("indexer.cache_hits", int(lookup.cache_hit))

    tracer.patch_method(DataIndexer, "locate", "indexer", on_locate)

    def on_peer(args, kwargs, execution):
        count("peer.rows_out", len(execution.result.rows))

    tracer.patch_method(NormalPeer, "execute_fetch", "peer", on_peer)
    tracer.patch_method(NormalPeer, "execute_local", "peer", on_peer)

    for name in ("execute", "execute_prepared", "execute_select"):
        original = Database.__dict__[name]

        def database_call(*args, __original=original, **kwargs):
            stack = tracer.stack
            if len(stack) > 1 and stack[-2][0] == "database":
                return __original(*args, **kwargs)
            database = args[0]
            hits = database.plan_cache_hits
            misses = database.plan_cache_misses
            result = __original(*args, **kwargs)
            count("database.plan_cache_hits", database.plan_cache_hits - hits)
            count(
                "database.plan_cache_lookups",
                database.plan_cache_hits - hits
                + database.plan_cache_misses - misses,
            )
            return result

        def on_database(args, kwargs, result):
            count("database.rows_out", len(result.rows))

        tracer.patch_attr(
            Database, name, tracer.wrap("database", database_call, on_database)
        )

    def on_rewrite(args, kwargs, rows):
        count("access_control.rows", len(rows))

    tracer.patch_method(
        AccessController, "rewrite_rows", "access_control", on_rewrite
    )

    def on_records(args, kwargs, result):
        count("pricing.rows_sized", len(args[0]))

    tracer.patch_function(records_byte_size, "pricing", on_records)
    byte_size = QueryResult.__dict__["byte_size"]

    def sized(result):
        if result._byte_size is None:
            count("pricing.rows_sized", len(result.rows))
        return byte_size.fget(result)

    tracer.patch_attr(
        QueryResult, "byte_size", property(tracer.wrap("pricing", sized))
    )

    def on_transfer(args, kwargs, result):
        count("network.bytes", args[3] if len(args) > 3 else kwargs["nbytes"])

    tracer.patch_method(SimNetwork, "transfer", "network", on_transfer)

    tracer.patch_function(build_filter, "bloom")
    contains = BloomFilter.__dict__["__contains__"]

    def probe(bloom, value):
        passed = contains(bloom, value)
        count("bloom.probes", 1)
        if passed:
            count("bloom.passed", 1)
        return passed

    tracer.patch_attr(BloomFilter, "__contains__", tracer.wrap("bloom", probe))

    def on_extend(args, kwargs, result):
        count("memtable.rows_staged", len(args[1]))

    tracer.patch_method(MemTable, "extend", "memtable", on_extend)
    tracer.patch_method(MemTable, "flush", "memtable")
    coerce_row = TableSchema.__dict__["coerce_row"]

    def counted_coerce(*args, **kwargs):
        if tracer.stack and tracer.stack[-1][0] == "memtable":
            counts["memtable.coerce_calls"] += 1
        return coerce_row(*args, **kwargs)

    tracer.patch_attr(TableSchema, "coerce_row", counted_coerce)

    def on_job(args, kwargs, result):
        count("mapreduce.records", len(result.records))

    tracer.patch_method(MapReduceEngine, "run_job", "mapreduce", on_job)

    for name, cls in (
        ("basic", BasicEngine),
        ("parallel", ParallelP2PEngine),
        ("mapreduce", BestPeerMapReduceEngine),
        ("adaptive", AdaptiveEngine),
    ):
        tracer.patch_method(cls, "execute", f"engine.{name}")

    def on_decision(args, kwargs, decision):
        if decision.chosen_engine == "mapreduce":
            count("adaptive.chose_mapreduce", 1)

    tracer.patch_method(
        AdaptiveEngine, "plan_decision", "adaptive", on_decision
    )
    tracer.patch_method(ResilienceContext, "call", "resilience")
    tracer.patch_method(ServingFrontDoor, "submit", "serving")
    tracer.patch_method(ServingFrontDoor, "drain", "serving")
    tracer.patch_method(BestPeerNetwork, "execute", "facade")
    tracer.patch_method(BestPeerNetwork, "refresh_peer", "facade")

    def on_refresh(args, kwargs, delta):
        count("loader.changes", delta.change_count)

    tracer.patch_method(DataLoader, "refresh", "loader", on_refresh)
    tracer.patch_function(fingerprint_tuple, "fingerprint")
    tracer.patch_method(NormalPeer, "publish_indices", "publish")
    tracer.patch_method(DataIndexer, "unpublish_all", "publish")
    tracer.patch_method(NormalPeer, "backup_to", "backup")
    tracer.patch_method(NormalPeer, "load_initial", "load")

