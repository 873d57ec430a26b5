"""End-to-end tests for the BestPeer++ query engines.

Correctness oracle: a single local database holding the union of all peers'
partitions must agree with every engine on every benchmark query.
"""

import sqlite3

import pytest

from repro.core import BestPeerNetwork
from repro.errors import BestPeerError
from repro.sqlengine import Database
from repro.tpch import (
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    TpchGenerator,
    create_tpch_tables,
)

NUM_PEERS = 4


@pytest.fixture(scope="module")
def network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=11)
    for index in range(NUM_PEERS):
        peer_id = f"corp-{index}"
        net.add_peer(peer_id)
        net.load_peer(peer_id, generator.generate_peer(index))
    role = net.create_full_access_role()
    net.create_user("bench", "corp-0", role)
    return net


@pytest.fixture(scope="module")
def oracle():
    db = Database()
    create_tpch_tables(db)
    generator = TpchGenerator(seed=11)
    for index in range(NUM_PEERS):
        for table, rows in generator.generate_peer(index).items():
            if table in ("nation", "region") and index > 0:
                continue
            db.table(table).insert_many(rows)
    return db


@pytest.fixture(scope="module")
def sqlite_oracle():
    """Every peer's rows (each peer holds its own nation and region copy)
    in stdlib sqlite3, an engine independent of this one."""
    conn = sqlite3.connect(":memory:")
    generator = TpchGenerator(seed=11)
    for table, schema in TPCH_SCHEMAS.items():
        conn.execute(f"CREATE TABLE {table} ({', '.join(schema.column_names)})")
    for index in range(NUM_PEERS):
        for table, rows in generator.generate_peer(index).items():
            width = len(TPCH_SCHEMAS[table].columns)
            conn.executemany(
                f"INSERT INTO {table} VALUES ({', '.join('?' * width)})", rows
            )
    yield conn
    conn.close()


def _sorted(rows):
    return sorted(rows, key=repr)


ENGINES = ["basic", "parallel", "mapreduce"]


class TestCorrectnessAcrossEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_q1(self, network, oracle, engine):
        execution = network.execute(Q1(), engine=engine)
        expected = oracle.execute(Q1())
        assert _sorted(execution.records) == _sorted(expected.rows)
        assert len(execution.records) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q2(self, network, oracle, engine):
        execution = network.execute(Q2(), engine=engine)
        assert execution.scalar() == pytest.approx(oracle.execute(Q2()).scalar())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q3(self, network, oracle, engine):
        execution = network.execute(Q3(), engine=engine)
        expected = oracle.execute(Q3())
        assert _sorted(execution.records) == _sorted(expected.rows)
        assert len(execution.records) > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q4(self, network, oracle, engine):
        execution = network.execute(Q4(), engine=engine)
        expected = oracle.execute(Q4())
        assert {row[0]: row[1] for row in execution.records} == pytest.approx(
            {row[0]: row[1] for row in expected.rows}
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_q5(self, network, oracle, engine):
        execution = network.execute(Q5(), engine=engine)
        expected = oracle.execute(Q5())
        assert len(execution.records) == len(expected.rows)
        for got, want in zip(execution.records, expected.rows):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_join_reads_each_binding(self, network, sqlite_oracle, engine):
        """Two bindings of one table must each see their own pushed-down
        rows (n1 = FRANCE, n2 = IRAQ), not share one staged copy."""
        sql = (
            "SELECT n1.n_name, n2.n_name, COUNT(*) "
            "FROM supplier, nation n1, nation n2 "
            "WHERE s_nationkey = n1.n_nationkey "
            "AND n1.n_regionkey = n2.n_regionkey "
            "AND n1.n_name = 'FRANCE' AND n2.n_name = 'IRAQ' "
            "GROUP BY n1.n_name, n2.n_name"
        )
        execution = network.execute(sql, engine=engine, user="bench")
        expected = sqlite_oracle.execute(sql).fetchall()
        assert expected and expected[0][:2] == ("FRANCE", "IRAQ")
        assert _sorted(execution.records) == _sorted(expected)

    def test_adaptive_matches_oracle_on_q5(self, network, oracle):
        execution = network.execute(Q5(), engine="adaptive")
        expected = oracle.execute(Q5())
        assert len(execution.records) == len(expected.rows)
        for got, want in zip(execution.records, expected.rows):
            assert got[1] == pytest.approx(want[1])


class TestEngineBehaviour:
    def test_q1_uses_fetch_and_process(self, network):
        execution = network.execute(Q1(), engine="basic")
        assert execution.strategy == "fetch-and-process"
        assert execution.peers_contacted == NUM_PEERS

    def test_access_control_masks_fetched_data(self, network, oracle):
        from repro.core import Role, rule, READ

        limited = Role(
            "narrow",
            [
                rule("lineitem.l_orderkey", [READ]),
                rule("lineitem.l_partkey", [READ]),
                rule("lineitem.l_suppkey", [READ]),
                rule("lineitem.l_linenumber", [READ]),
                # l_quantity readable only in [0, 10].
                rule("lineitem.l_quantity", [READ], (0.0, 10.0)),
                rule("lineitem.l_shipdate", [READ]),
                rule("lineitem.l_commitdate", [READ]),
            ],
        )
        network.create_user("restricted", "corp-0", limited)
        execution = network.execute(Q1(), engine="basic", user="restricted")
        quantities = execution.column("l_quantity")
        assert all(q is None or q <= 10.0 for q in quantities)
        assert any(q is None for q in quantities)  # something was masked

    def test_aggregates_respect_value_range_masking(self, network, oracle):
        """A restricted user's SUM must skip out-of-range (masked) values —
        the partial-aggregate pushdown may not bypass access control."""
        from repro.core import Role, rule, READ

        capped = Role(
            "capped",
            [rule("lineitem.l_quantity", [READ], (0.0, 25.0))],
        )
        network.create_user("capped_user", "corp-0", capped)
        sql = "SELECT SUM(l_quantity) FROM lineitem"
        execution = network.execute(sql, engine="basic", user="capped_user")
        expected = oracle.execute(
            "SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity <= 25.0"
        ).scalar()
        assert execution.scalar() == pytest.approx(expected)
        # The unrestricted benchmark user still gets the full sum (and the
        # fast pushdown path).
        full = network.execute(sql, engine="basic", user="bench")
        assert full.scalar() == pytest.approx(oracle.execute(sql).scalar())
        assert full.scalar() > execution.scalar()

    def test_mapreduce_engine_pays_startup(self, network):
        execution = network.execute(Q1(), engine="mapreduce")
        assert execution.latency_s >= network.mr_config.job_startup_s

    def test_basic_engine_much_faster_than_mr_on_q1(self, network):
        basic = network.execute(Q1(), engine="basic")
        mapreduce = network.execute(Q1(), engine="mapreduce")
        assert basic.latency_s < mapreduce.latency_s / 3

    def test_bloom_join_used_on_q3(self, network):
        execution = network.execute(Q3(), engine="basic")
        assert execution.bloom_joins == 1

    def test_bloom_join_reduces_bytes(self):
        generator = TpchGenerator(seed=11)

        def run(bloom_enabled):
            from repro.core import BestPeerConfig

            config = BestPeerConfig(bloom_join_enabled=bloom_enabled)
            net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES, config=config)
            for index in range(2):
                net.add_peer(f"p{index}")
                net.load_peer(f"p{index}", generator.generate_peer(index))
            # Highly selective on orders -> few join keys -> bloom prunes
            # most lineitem rows at the source.
            sql = (
                "SELECT o_orderkey, l_extendedprice FROM orders, lineitem "
                "WHERE o_orderkey = l_orderkey "
                "AND o_orderdate > DATE '1998-06-01'"
            )
            execution = net.execute(sql, engine="basic")
            return execution

        with_bloom = run(True)
        without_bloom = run(False)
        assert _sorted(with_bloom.records) == _sorted(without_bloom.records)
        assert with_bloom.bytes_transferred < without_bloom.bytes_transferred / 2

    def test_dollar_cost_positive(self, network):
        execution = network.execute(Q2(), engine="basic")
        assert execution.dollar_cost > 0

    def test_unknown_engine_rejected(self, network):
        with pytest.raises(BestPeerError):
            network.execute(Q1(), engine="quantum")

    def test_clock_advances_with_queries(self, network):
        before = network.clock.now
        network.execute(Q1(), engine="basic")
        assert network.clock.now > before


class TestSinglePeerOptimization:
    def test_whole_query_shipped_to_single_owner(self):
        net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
        generator = TpchGenerator(seed=5)
        # Only supplier-0 hosts part/partsupp; corp-1 hosts the rest.
        net.add_peer("supplier-0", tables=["part", "partsupp", "supplier"])
        net.add_peer("corp-1", tables=["lineitem", "orders", "customer"])
        data = generator.generate_peer(0)
        net.load_peer(
            "supplier-0",
            {t: data[t] for t in ("part", "partsupp", "supplier")},
        )
        net.load_peer(
            "corp-1", {t: data[t] for t in ("lineitem", "orders", "customer")}
        )
        execution = net.execute(Q4(), peer_id="corp-1", engine="basic")
        assert execution.strategy == "single-peer"
        assert execution.peers_contacted == 1
        assert len(execution.records) > 0


class TestAdaptiveDecision:
    def test_decision_recorded(self, network):
        network.execute(Q5(), engine="adaptive")
        adaptive = network._adaptive[sorted(network.peers)[0]]
        decision = adaptive.last_decision
        assert decision is not None
        assert decision.chosen_engine in ("p2p", "mapreduce")
        assert len(decision.levels) == 4  # 3 joins + groupby level

    def test_simple_query_always_p2p(self, network):
        execution = network.execute(Q1(), engine="adaptive")
        assert execution.strategy in ("fetch-and-process", "single-peer")
