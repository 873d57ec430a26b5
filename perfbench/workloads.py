"""The benchmark's three seeded workloads.

Each workload generates its inputs from the seed (outside any timed
region), builds a fresh deployment through the public ``BestPeerNetwork``
API (timed as set-up), and then hands out its request stream in fixed-size
*passes*.  A pass is the unit the runner times and repeats until the time
budget is spent; its contents depend only on the seed and the pass number,
so the first passes of two runs with one seed are identical requests.

* ``analytic-join`` -- a closed loop over Q3/Q4/Q5 on the 10-peer TPC-H
  network, every drawn query executed once under each engine.
* ``supply-chain`` -- an open loop of Poisson arrivals on the simulated
  clock through the serving front door of the 20-peer section 6.2
  network.
* ``refresh-mix`` -- cycles of one differential refresh followed by nine
  basic-engine reads on the 10-peer TPC-H network.
"""

from __future__ import annotations

import datetime
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    DATA_SCALE,
    bench_compute_model,
    bench_cost_params,
    bench_mr_config,
    bench_network_config,
)
from repro.core import BestPeerNetwork
from repro.core.config import LANE_BULK, LANE_INTERACTIVE
from repro.errors import ReproError
from repro.serving.admission import ServingRequest
from repro.tpch import (
    COMMON_TABLES,
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    SupplyChainPartitioner,
    TpchGenerator,
    queries,
    retailer_throughput_query,
    supplier_throughput_query,
)
from repro.tpch.schema import NATION_KEY_COLUMNS, TABLE_NAMES, schema_for

ENGINES = ("basic", "parallel", "mapreduce", "adaptive")

# analytic-join and refresh-mix share one 10-peer TPC-H network.
TPCH_PEERS = 10

# analytic-join: a pass is three Q3 draws, one Q4 and one Q5 in seeded
# order, each under all four engines, so 20 executions.  Q3 is drawn three
# times so that the median query falls inside Q3's continuous latency
# range, not in a gap between query types.  Parameters are stratified over
# the minimum run of 9 passes.
ANALYTIC_Q3_PER_PASS = 3
ANALYTIC_MIN_PASSES = 9

# supply-chain: two tenants; each pass is exactly 70% interactive supplier
# queries from retailer users and 30% bulk retailer queries from supplier
# users, in seeded order.
SUPPLY_PEERS = 20
SUPPLY_REQUESTS_PER_PASS = 200
SUPPLY_INTERACTIVE_SHARE = 0.7
# Pool capacity with the default 4 workers is 4 / (0.7 * 0.130 s + 0.3 *
# 0.771 s) ~= 12.4 q/s of simulated service; 7.5 q/s offers ~60% of it.
SUPPLY_RATE_QPS = 7.5

# refresh-mix: one refresh then nine reads (three each of Q1, Q2, Q3); a
# pass is two cycles, one refreshing lineitem and one orders.  Read
# parameters are stratified over the minimum run of 12 passes.
REFRESH_READS_PER_CYCLE = 9
REFRESH_PARAM_STRATA = 72
REFRESH_CHANGE_SHARE = 0.05
REFRESH_TABLES = ("lineitem", "orders")


@dataclass
class Request:
    """One unit of offered work.

    ``kind`` is ``"query"`` or ``"refresh"``.  Queries carry SQL and the
    engine; supply-chain queries also carry a tenant, lane, requesting peer,
    user and their due time on the simulated clock.  Refreshes carry the
    peer, the table and the full new snapshot of its rows.
    """

    kind: str
    label: str
    sql: str = ""
    engine: str = "basic"
    user: Optional[str] = None
    peer_id: Optional[str] = None
    tenant: str = ""
    lane: str = LANE_INTERACTIVE
    due_s: float = 0.0
    table: str = ""
    rows: Optional[List[tuple]] = None
    changed: Optional[List[Tuple[int, tuple]]] = None


@dataclass
class Outcome:
    """What the benchmark observed for one request."""

    request: Request
    started_at: float = 0.0
    wall_s: float = 0.0
    sim_latency_s: float = 0.0
    queue_wait_s: float = 0.0
    bytes_transferred: int = 0
    dollar_cost: float = 0.0
    strategy: str = ""
    spills: int = 0
    rows: Optional[List[tuple]] = None
    delta: Tuple[int, int] = (0, 0)
    error: Optional[str] = None


@dataclass
class Deployment:
    """A built network plus what the workload drives it with."""

    network: BestPeerNetwork
    front_door: object = None
    shed: int = 0


def _rng(seed: int, *parts: object) -> random.Random:
    return random.Random(repr((seed,) + parts))


class Stratified:
    """Seeded stratified draws from [0, 1).

    Every block of ``size`` draws takes one value from each of ``size``
    equal strata, in a seeded order.  Runs with different seeds therefore
    see the same spread of query parameters and differ only in order and
    in jitter within a stratum.
    """

    def __init__(self, rng: random.Random, size: int) -> None:
        self._rng = rng
        self._size = size
        self._order: List[int] = []

    def draw(self) -> float:
        if not self._order:
            self._order = list(range(self._size))
            self._rng.shuffle(self._order)
        return (self._order.pop() + self._rng.random()) / self._size

    def integer(self, low: int, high: int) -> int:
        """An integer in [low, high]."""
        return low + int(self.draw() * (high - low + 1))

    def date(self, low: str, high: str) -> str:
        start = datetime.date.fromisoformat(low)
        span = (datetime.date.fromisoformat(high) - start).days
        return (start + datetime.timedelta(days=self.integer(0, span))).isoformat()


class Q3Params:
    """Q3's ship date and the order date a stratified gap before it."""

    def __init__(self, rng: random.Random, size: int) -> None:
        self._ship = Stratified(rng, size)
        self._gap = Stratified(rng, size)

    def sql(self) -> str:
        ship = self._ship.date("1997-06-01", "1998-06-01")
        gap = datetime.timedelta(days=self._gap.integer(0, 90))
        order = (datetime.date.fromisoformat(ship) - gap).isoformat()
        return queries.Q3(ship_date=ship, order_date=order)


def _tpch_network() -> BestPeerNetwork:
    """The harness's section 6.1 configuration, built fresh."""
    return BestPeerNetwork(
        TPCH_SCHEMAS,
        SECONDARY_INDICES,
        mr_config=bench_mr_config(),
        cost_params=bench_cost_params(),
        compute_model=bench_compute_model(),
        network_config=bench_network_config(),
    )


class TpchWorkload:
    """Shared inputs and set-up of the two 10-peer TPC-H workloads."""

    name = ""
    peers = TPCH_PEERS
    schemas = TPCH_SCHEMAS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        generator = TpchGenerator(seed=seed, scale=DATA_SCALE)
        self.peer_ids = [f"corp-{index}" for index in range(self.peers)]
        self.data = [
            generator.generate_peer(index) for index in range(self.peers)
        ]

    def oracle_tables(self) -> Dict[str, List[Tuple[str, tuple]]]:
        """Every peer's rows, tagged with the owning peer."""
        tables: Dict[str, List[Tuple[str, tuple]]] = {}
        for peer_id, data in zip(self.peer_ids, self.data):
            for table, rows in data.items():
                tables.setdefault(table, []).extend(
                    (peer_id, row) for row in rows
                )
        return tables

    def build(self, calibrate) -> Deployment:
        """Build the network; ``calibrate`` runs between peers."""
        network = _tpch_network()
        for peer_id, data in zip(self.peer_ids, self.data):
            calibrate()
            network.add_peer(peer_id)
            network.load_peer(peer_id, data)
        role = network.create_full_access_role()
        network.create_user("bench", self.peer_ids[0], role)
        network.build_histogram("lineitem", ["l_shipdate"])
        network.build_histogram("orders", ["o_orderdate"])
        network.build_histogram("part", ["p_size"])
        return Deployment(network)

    def run_pass(
        self, deployment: Deployment, requests: Sequence[Request], calibrate
    ) -> List[Outcome]:
        """Closed loop: each request starts when the previous one ended."""
        network = deployment.network
        outcomes = []
        for request in requests:
            calibrate()
            outcome = Outcome(request)
            started = time.perf_counter()
            try:
                if request.kind == "refresh":
                    result = network.refresh_peer(
                        request.peer_id, request.table, request.rows
                    )
                else:
                    result = network.execute(
                        request.sql, engine=request.engine, user=request.user
                    )
            except ReproError as error:
                result = None
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.started_at = started
            outcome.wall_s = time.perf_counter() - started
            if result is not None and request.kind == "refresh":
                outcome.delta = (len(result.inserted), len(result.deleted))
            elif result is not None:
                _record_execution(outcome, result)
            outcomes.append(outcome)
        return outcomes


def _record_execution(outcome: Outcome, execution) -> None:
    outcome.sim_latency_s = execution.latency_s
    outcome.bytes_transferred = execution.bytes_transferred
    outcome.dollar_cost = execution.dollar_cost
    outcome.strategy = execution.strategy
    outcome.spills = execution.memtable_spills
    outcome.rows = list(execution.records)


class AnalyticJoin(TpchWorkload):
    """Q3/Q4/Q5 under every engine on the 10-peer TPC-H network."""

    name = "analytic-join"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        params = _rng(seed, self.name, "params")
        self._q3 = Q3Params(params, ANALYTIC_Q3_PER_PASS * ANALYTIC_MIN_PASSES)
        self._q4 = Stratified(params, ANALYTIC_MIN_PASSES)

    def next_pass(self, index: int) -> List[Request]:
        rng = _rng(self.seed, self.name, index)
        drawn = [("Q3", self._q3.sql()) for _ in range(ANALYTIC_Q3_PER_PASS)]
        drawn += [
            ("Q4", queries.Q4(min_size=self._q4.integer(20, 40))),
            ("Q5", queries.Q5()),
        ]
        rng.shuffle(drawn)
        requests = []
        for label, sql in drawn:
            engines = list(ENGINES)
            rng.shuffle(engines)
            for engine in engines:
                requests.append(
                    Request("query", label, sql=sql, engine=engine, user="bench")
                )
        return requests


class RefreshMix(TpchWorkload):
    """Differential refreshes interleaved with basic-engine reads."""

    name = "refresh-mix"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # The benchmark's model of each (peer, table) snapshot; refreshes
        # are generated against it, in pass order.
        self._current = {
            (peer_id, table): list(data[table])
            for peer_id, data in zip(self.peer_ids, self.data)
            for table in REFRESH_TABLES
        }
        params = _rng(seed, self.name, "params")
        size = REFRESH_PARAM_STRATA
        self._peers = Stratified(params, len(self.peer_ids))
        self._q1_ship = Stratified(params, size)
        self._q1_commit = Stratified(params, size)
        self._q2_ship = Stratified(params, size)
        self._q3 = Q3Params(params, size)

    def next_pass(self, index: int) -> List[Request]:
        rng = _rng(self.seed, self.name, index)
        tables = list(REFRESH_TABLES)
        rng.shuffle(tables)
        requests = []
        for table in tables:
            requests.append(self._refresh(rng, table))
            labels = ["Q1", "Q2", "Q3"] * (REFRESH_READS_PER_CYCLE // 3)
            rng.shuffle(labels)
            for label in labels:
                requests.append(
                    Request(
                        "query", label, sql=self._read(label),
                        engine="basic", user="bench",
                    )
                )
        return requests

    def _read(self, label: str) -> str:
        if label == "Q1":
            return queries.Q1(
                ship_date=self._q1_ship.date("1997-07-01", "1998-04-01"),
                commit_date=self._q1_commit.date("1997-04-01", "1998-01-01"),
            )
        if label == "Q2":
            return queries.Q2(
                ship_date=self._q2_ship.date("1997-01-01", "1998-04-01")
            )
        return self._q3.sql()

    def _refresh(self, rng: random.Random, table: str) -> Request:
        peer_id = self.peer_ids[self._peers.integer(0, len(self.peer_ids) - 1)]
        rows = list(self._current[(peer_id, table)])
        count = max(1, round(len(rows) * REFRESH_CHANGE_SHARE))
        changed = []
        for position in sorted(rng.sample(range(len(rows)), count)):
            rows[position] = _updated(table, rows[position], rng)
            changed.append((position, rows[position]))
        self._current[(peer_id, table)] = rows
        return Request(
            "refresh", f"refresh-{table}", peer_id=peer_id, table=table,
            rows=rows, changed=changed,
        )


def _updated(table: str, row: tuple, rng: random.Random) -> tuple:
    """A changed version of one row: new measures and a moved date."""
    values = list(row)
    if table == "lineitem":
        quantity = float(rng.randrange(1, 51))
        values[4] = quantity
        values[5] = round(quantity * rng.uniform(900.0, 2100.0), 2)
        values[6] = round(rng.uniform(0.0, 0.10), 2)
        shipped = datetime.date.fromisoformat(values[10])
        values[10] = (
            shipped + datetime.timedelta(days=rng.randrange(-30, 31))
        ).isoformat()
    else:
        values[3] = round(rng.uniform(1000.0, 400000.0), 2)
        ordered = datetime.date.fromisoformat(values[4])
        values[4] = (
            ordered + datetime.timedelta(days=rng.randrange(-30, 31))
        ).isoformat()
    return tuple(values)


class SupplyChain:
    """Two tenants' open-loop traffic through the serving front door."""

    name = "supply-chain"
    peers = SUPPLY_PEERS

    def __init__(self, seed: int) -> None:
        self.seed = seed
        partitioner = SupplyChainPartitioner(TpchGenerator(seed=seed, scale=1.0))
        self.assignments = partitioner.assign(
            [f"peer-{index}" for index in range(self.peers)]
        )
        self.data = [
            partitioner.generate_for(assignment, index)
            for index, assignment in enumerate(self.assignments)
        ]
        self.suppliers = [a for a in self.assignments if a.role == "supplier"]
        self.retailers = [a for a in self.assignments if a.role == "retailer"]
        self.schemas = {
            name: schema_for(name, with_nation_key=True) for name in TABLE_NAMES
        }

    def oracle_tables(self) -> Dict[str, List[Tuple[str, tuple]]]:
        """Every peer's rows; the replicated tables come from one peer."""
        tables: Dict[str, List[Tuple[str, tuple]]] = {}
        seen_common = set()
        for assignment, data in zip(self.assignments, self.data):
            for table, rows in data.items():
                if table in COMMON_TABLES:
                    if table in seen_common:
                        continue
                    seen_common.add(table)
                tables.setdefault(table, []).extend(
                    (assignment.peer_id, row) for row in rows
                )
        return tables

    def build(self, calibrate) -> Deployment:
        """Build the network; ``calibrate`` runs between peers."""
        network = BestPeerNetwork(
            self.schemas,
            secondary_indices=None,
            mr_config=bench_mr_config(),
            compute_model=bench_compute_model(),
            network_config=bench_network_config(),
        )
        for assignment, data in zip(self.assignments, self.data):
            calibrate()
            network.add_peer(assignment.peer_id, tables=assignment.tables)
            range_columns = {
                table: [NATION_KEY_COLUMNS[table]]
                for table in assignment.tables
                if table not in COMMON_TABLES
            }
            network.load_peer(
                assignment.peer_id, data, range_columns=range_columns
            )
        role = network.create_full_access_role("throughput")
        for assignment in self.assignments:
            network.create_user(_user_of(assignment), assignment.peer_id, role)
        front_door = network.attach_serving()
        return Deployment(network, front_door=front_door)

    def next_pass(self, index: int) -> List[Request]:
        """Poisson arrivals; a pass starts after the previous one drained.

        Due times are offsets from the pass start; the runner shifts them
        to the front door's clock when the pass begins.
        """
        rng = _rng(self.seed, self.name, index)
        interactive = round(SUPPLY_REQUESTS_PER_PASS * SUPPLY_INTERACTIVE_SHARE)
        lanes = [True] * interactive + [False] * (
            SUPPLY_REQUESTS_PER_PASS - interactive
        )
        rng.shuffle(lanes)
        requests = []
        due = 0.0
        for is_interactive in lanes:
            due += rng.expovariate(SUPPLY_RATE_QPS)
            if is_interactive:
                target = rng.choice(self.suppliers)
                requester = rng.choice(self.retailers)
                requests.append(
                    Request(
                        "query", "supplier-query",
                        sql=supplier_throughput_query(target.nation_key),
                        user=_user_of(requester), peer_id=requester.peer_id,
                        tenant="retailers", lane=LANE_INTERACTIVE, due_s=due,
                    )
                )
            else:
                target = rng.choice(self.retailers)
                requester = rng.choice(self.suppliers)
                requests.append(
                    Request(
                        "query", "retailer-query",
                        sql=retailer_throughput_query(target.nation_key),
                        user=_user_of(requester), peer_id=requester.peer_id,
                        tenant="suppliers", lane=LANE_BULK, due_s=due,
                    )
                )
        return requests

    def run_pass(
        self, deployment: Deployment, requests: Sequence[Request], calibrate
    ) -> List[Outcome]:
        """Submit every arrival at its due time, then drain the front door.

        The front door calls the executor at dispatch; the wrapper below
        times that call and records the queue wait on the serving timeline.
        """
        front_door = deployment.front_door
        network = deployment.network
        start = front_door.now
        serving = [
            ServingRequest(
                tenant=request.tenant, sql=request.sql, lane=request.lane,
                engine=request.engine, user=request.user,
                peer_id=request.peer_id,
            )
            for request in requests
        ]
        # ``serving`` keeps every ServingRequest alive, so ids stay unique.
        request_of = {id(s): r for s, r in zip(serving, requests)}
        by_request: Dict[int, Outcome] = {}

        def run(serving_request):
            request = request_of[id(serving_request)]
            outcome = Outcome(request)
            outcome.queue_wait_s = front_door.now - (start + request.due_s)
            calibrate()
            by_request[id(request)] = outcome
            started = time.perf_counter()
            try:
                execution = network.execute(
                    serving_request.sql,
                    peer_id=serving_request.peer_id,
                    engine=serving_request.engine,
                    user=serving_request.user,
                )
            except ReproError as error:
                outcome.error = f"{type(error).__name__}: {error}"
                raise
            finally:
                outcome.started_at = started
                outcome.wall_s = time.perf_counter() - started
            _record_execution(outcome, execution)
            outcome.sim_latency_s += outcome.queue_wait_s
            return execution

        original = front_door.executor
        front_door.executor = run
        try:
            for request, serving_request in zip(requests, serving):
                ticket = front_door.submit(
                    serving_request, now=start + request.due_s
                )
                if not ticket.admitted:
                    deployment.shed += 1
            front_door.drain()
        finally:
            front_door.executor = original
        outcomes = []
        for request in requests:
            outcome = by_request.get(id(request))
            if outcome is None:
                outcome = Outcome(request, error="shed")
            outcomes.append(outcome)
        return outcomes


def _user_of(assignment) -> str:
    return f"{assignment.role}-user-{assignment.peer_id}"


WORKLOADS = {
    AnalyticJoin.name: AnalyticJoin,
    SupplyChain.name: SupplyChain,
    RefreshMix.name: RefreshMix,
}
