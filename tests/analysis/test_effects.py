"""Tier-4 effect inference: extraction, fixpoint, witnesses, determinism."""

import ast
import random
import textwrap

import pytest

from repro.analysis import analyze_project
from repro.analysis.astcache import AstCache
from repro.analysis.effects import (
    SUMMARY_TAG,
    EffectInference,
    EffectSignature,
    class_name_tokens,
    compute_summaries,
    parse_dotted_qual,
    receiver_name_tokens,
)
from repro.analysis.registry import get_rule


def infer(graph_of, files):
    return EffectInference.for_graph(graph_of(files))


def sig(inference, dotted):
    qual = parse_dotted_qual(dotted, inference.bases)
    assert qual is not None, f"no such function: {dotted}"
    return inference.signature(qual)


class TestIntrinsics:
    def test_wallclock_random_io_network(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time
                import random
                import os

                def clock():
                    return time.perf_counter()

                def entropy():
                    return random.random()

                def disk(path):
                    return open(path).read()

                def wire(self_net, payload):
                    self_net.transfer(0, 1, payload)

                def listdir():
                    return os.listdir('.')
            """,
        })
        assert sig(inference, "proj.mod.clock").wallclock
        assert sig(inference, "proj.mod.entropy").global_random
        assert sig(inference, "proj.mod.disk").real_io
        assert sig(inference, "proj.mod.wire").network_send
        assert sig(inference, "proj.mod.listdir").real_io

    def test_from_imports_resolve_to_intrinsics(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                from time import perf_counter
                from random import shuffle as mix

                def t():
                    return perf_counter()

                def r(items):
                    mix(items)
            """,
        })
        assert sig(inference, "proj.mod.t").wallclock
        assert sig(inference, "proj.mod.r").global_random

    def test_seeded_rng_instance_is_not_global_random(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import random

                def draw(rng):
                    return rng.random()

                def make():
                    return random.Random(7)
            """,
        })
        assert not sig(inference, "proj.mod.draw").global_random
        assert not sig(inference, "proj.mod.make").global_random

    def test_self_mutation_owner_is_enclosing_class(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                class Ledger:
                    def record(self, entry):
                        self.entries.append(entry)

                    def reset(self):
                        self.entries = []
            """,
        })
        assert sig(inference, "proj.mod.Ledger.record").mutates == (
            "proj.mod:Ledger",
        )
        assert sig(inference, "proj.mod.Ledger.reset").mutates == (
            "proj.mod:Ledger",
        )

    def test_annotated_param_mutation_owner(self, graph_of):
        inference = infer(graph_of, {
            "proj/state.py": """
                class BootstrapState:
                    def __init__(self):
                        self.peers = {}
            """,
            "proj/apply.py": """
                from proj.state import BootstrapState

                def apply(state: BootstrapState, entry):
                    state.peers[entry[0]] = entry[1]
            """,
        })
        assert sig(inference, "proj.apply.apply").mutates == (
            "proj.state:BootstrapState",
        )

    def test_local_container_mutation_is_not_shared(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                def build(rows):
                    out = []
                    for row in rows:
                        out.append(row)
                    return out
            """,
        })
        assert sig(inference, "proj.mod.build").pure

    def test_global_statement_mutation(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                _COUNTER = 0

                def bump():
                    global _COUNTER
                    _COUNTER += 1
            """,
        })
        assert sig(inference, "proj.mod.bump").mutates == (
            "proj.mod:<globals>",
        )

    def test_calls_inside_store_delete_and_handler_targets(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                class Store:
                    def put(self, holder, key, value):
                        self.data.setdefault(holder, {})[key] = value

                    def drop(self, holder, key):
                        del self.data.setdefault(holder, {})[key]

                def stamp(rows):
                    rows[int(time.time())] = 1

                def handled_by(stamp):
                    return ValueError

                def guarded(work):
                    try:
                        return work()
                    except handled_by(time.time()):
                        return None
            """,
        })
        for method in ("put", "drop"):
            assert sig(inference, f"proj.mod.Store.{method}").mutates == (
                "proj.mod:Store",
            )
        assert sig(inference, "proj.mod.stamp").wallclock
        assert sig(inference, "proj.mod.guarded").wallclock


class TestPropagation:
    def test_effects_flow_up_call_chains(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def leaf():
                    return time.monotonic()

                def middle():
                    return leaf()

                def top():
                    return middle()
            """,
        })
        assert sig(inference, "proj.mod.top").wallclock

    def test_mutual_recursion_converges(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def ping(n):
                    if n <= 0:
                        return time.monotonic()
                    return pong(n - 1)

                def pong(n):
                    return ping(n - 1)

                def spin(n):
                    return spin(n - 1) if n else 0
            """,
        })
        assert sig(inference, "proj.mod.ping").wallclock
        assert sig(inference, "proj.mod.pong").wallclock
        assert sig(inference, "proj.mod.spin").pure

    def test_unique_fallback_method_needs_receiver_match(self, graph_of):
        files = {
            "proj/wal.py": """
                class MetadataLog:
                    def append(self, entry):
                        self.entries.append(entry)
            """,
            "proj/use.py": """
                class Holder:
                    def good(self, entry):
                        # receiver names the class: effects propagate
                        self.metadata_log.append(entry)

                    def unrelated(self, pending, entry):
                        # a plain list named nothing like MetadataLog
                        pending.append(entry)
            """,
        }
        inference = infer(graph_of, files)
        assert "proj.wal:MetadataLog" in sig(
            inference, "proj.use.Holder.good"
        ).mutates
        assert all(
            "MetadataLog" not in owner
            for owner in sig(inference, "proj.use.Holder.unrelated").mutates
        )

    def test_decorator_cannot_launder_effects(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def stamp(tag):
                    started = time.monotonic()
                    def wrap(fn):
                        return fn
                    return wrap

                @stamp('x')
                def decorated(v):
                    return v

                def plain(v):
                    return v
            """,
        })
        # an effectful decorator taints the function it wraps
        assert sig(inference, "proj.mod.decorated").wallclock
        assert sig(inference, "proj.mod.plain").pure

    def test_function_reference_argument_is_assumed_invoked(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def nap(now):
                    time.sleep(0.1)

                def launder(runner):
                    runner(nap)
            """,
        })
        # higher-order laundering: passing ``nap`` taints the passer
        assert sig(inference, "proj.mod.launder").wallclock


class TestRaises:
    def test_raise_propagates_until_caught(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                def boom():
                    raise ValueError('x')

                def passthrough():
                    return boom()

                def guarded():
                    try:
                        return boom()
                    except ValueError:
                        return None
            """,
        })
        assert sig(inference, "proj.mod.passthrough").raises == ("ValueError",)
        assert sig(inference, "proj.mod.guarded").raises == ()

    def test_subclass_caught_through_project_hierarchy(self, graph_of):
        inference = infer(graph_of, {
            "proj/errors.py": """
                class AppError(Exception):
                    pass

                class TimeoutError_(AppError):
                    pass
            """,
            "proj/mod.py": """
                from proj.errors import TimeoutError_

                def boom():
                    raise TimeoutError_('late')

                def guarded():
                    try:
                        return boom()
                    except Exception:
                        return None

                def base_guarded():
                    try:
                        return boom()
                    except AppError:
                        return None
            """,
        })
        assert sig(inference, "proj.mod.boom").raises == ("TimeoutError_",)
        assert sig(inference, "proj.mod.guarded").raises == ()
        assert sig(inference, "proj.mod.base_guarded").raises == ()

    def test_local_raise_inside_try_never_escapes(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                def careful():
                    try:
                        raise KeyError('k')
                    except KeyError:
                        return None
            """,
        })
        assert sig(inference, "proj.mod.careful").raises == ()


class TestWitness:
    def test_witness_is_grounded_and_ordered(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def leaf():
                    return time.monotonic()

                def top():
                    return leaf()
            """,
        })
        qual = parse_dotted_qual("proj.mod.top", inference.bases)
        hops = inference.witness(qual, lambda a: a[0] == "wallclock")
        assert [h[0] for h in hops] == ["proj.mod:top", "proj.mod:leaf"]
        assert hops[-1][2] == "time.monotonic(...)"

    def test_witness_respects_exclusions(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def via_a():
                    return time.monotonic()

                def top():
                    return via_a()
            """,
        })
        qual = parse_dotted_qual("proj.mod.top", inference.bases)
        blocked = inference.witness(
            qual,
            lambda a: a[0] == "wallclock",
            exclude=frozenset({"proj.mod:via_a"}),
        )
        assert blocked is None


class TestCaching:
    def test_summaries_persist_under_summary_tag(self, graph_of, tmp_path):
        files = {
            "proj/mod.py": """
                import time

                def t():
                    return time.perf_counter()
            """,
        }
        graph = graph_of(files)
        cache = AstCache(str(tmp_path))
        graph.ast_cache = cache
        bases, _ = compute_summaries(graph)
        source = "\n".join(graph.modules["proj.mod"].lines)
        assert cache.load_aux(source, SUMMARY_TAG) is not None

        # A second graph over the same source hits the cache.
        graph2 = graph_of(files)
        graph2.ast_cache = cache
        bases2, _ = compute_summaries(graph2)
        assert sorted(bases2) == sorted(bases)
        assert bases2["proj.mod:t"].intrinsics[0].atom == ("wallclock",)
        assert bases2["proj.mod:t"].calls == bases["proj.mod:t"].calls

    def test_loop_body_sites_are_recorded_once(self, graph_of):
        # The walk interprets loop bodies twice for flow; each intrinsic
        # site still lands in the summary once.
        graph = graph_of({
            "proj/mod.py": """
                import time

                def poll(items):
                    for item in items:
                        while item:
                            item = time.monotonic()
            """,
        })
        summaries, _ = compute_summaries(graph)
        sites = summaries["proj.mod:poll"].intrinsics
        assert [site.text for site in sites] == ["time.monotonic(...)"]

    def test_inference_is_memoized_per_graph(self, graph_of):
        graph = graph_of({"proj/mod.py": "def f():\n    return 1\n"})
        first = EffectInference.for_graph(graph)
        assert EffectInference.for_graph(graph) is first


class TestDeterminism:
    FILES = {
        "proj/sim/handlers.py": (
            "import time\n"
            "from proj.sim.helpers import delay\n"
            "def on_done(now):\n"
            "    return delay(now)\n"
        ),
        "proj/sim/helpers.py": (
            "import time\n"
            "def delay(now):\n"
            "    time.sleep(0.01)\n"
            "    return now\n"
        ),
        "proj/sim/other.py": (
            "def noop():\n"
            "    return 1\n"
        ),
        "proj/plain.py": (
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        ),
    }

    #: RES004 runs on the same effect bases: a two-hop helper chain whose
    #: middle hop reaches two escaping helpers.
    RES004_FILES = {
        "proj/core/entry.py": (
            "from proj.core.helpers import relay\n"
            "def pull(net):\n"
            "    return relay(net)\n"
        ),
        "proj/core/helpers.py": (
            "from proj.core.wire import fetch_block, push_block\n"
            "def relay(net):\n"
            "    push_block(net)\n"
            "    return fetch_block(net)\n"
        ),
        "proj/core/wire.py": (
            "def fetch_block(net):\n"
            "    return net.transfer('a', 'b', 1)\n"
            "def push_block(net):\n"
            "    return net.broadcast('a', 1)\n"
        ),
    }
    FIXTURES = {"DET003": FILES, "RES004": RES004_FILES}

    @pytest.mark.parametrize("rule_id", sorted(FIXTURES))
    def test_shuffled_file_orders_render_identically(self, rule_id):
        rule = [get_rule(rule_id)]
        rendered = []
        fixture = self.FIXTURES[rule_id]
        paths = list(fixture)
        rng = random.Random(11)
        for _ in range(4):
            rng.shuffle(paths)
            files = {path: fixture[path] for path in paths}
            findings = analyze_project(files, rules=rule)
            rendered.append([(f.render(), f.trace) for f in findings])
        assert rendered[0]  # the contract violation is found at all
        assert all(r == rendered[0] for r in rendered[1:])

    def test_shuffled_file_orders_infer_identical_signatures(self, graph_of):
        dumps = []
        paths = list(self.FILES)
        rng = random.Random(13)
        for _ in range(4):
            rng.shuffle(paths)
            inference = infer(
                graph_of, {path: self.FILES[path] for path in paths}
            )
            dumps.append(
                {
                    qual: signature.to_dict()
                    for qual, signature in inference.all_signatures().items()
                }
            )
        assert all(d == dumps[0] for d in dumps[1:])


class TestHelpers:
    def test_class_name_tokens(self):
        tokens = class_name_tokens("MetadataLog")
        assert {"metadata", "log", "metadatalog"} <= tokens

    def test_receiver_name_tokens_depluralize(self):
        tokens = receiver_name_tokens("self._events")
        assert "events" in tokens and "event" in tokens
        assert "self" not in tokens

    def test_parse_dotted_qual_forms(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                class Queue:
                    def run(self):
                        return None

                def helper():
                    return 2
            """,
        })
        assert parse_dotted_qual("proj.mod.Queue.run", inference.bases) == (
            "proj.mod:Queue.run"
        )
        assert parse_dotted_qual("proj.mod.helper", inference.bases) == (
            "proj.mod:helper"
        )
        assert parse_dotted_qual("proj.mod", inference.bases) == (
            "proj.mod:<module>"
        )
        assert parse_dotted_qual("no.such.thing", inference.bases) is None

    def test_signature_render(self):
        assert EffectSignature().render() == "pure"
        rendered = EffectSignature(
            wallclock=True, mutates=("m:Owner",), raises=("KeyError",)
        ).render()
        assert "wallclock" in rendered
        assert "mutates(Owner)" in rendered
        assert "raises(KeyError)" in rendered
