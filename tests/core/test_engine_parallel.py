"""Tests for the parallel P2P engine (replicated joins, §5.3)."""

import pytest

from repro.core import BestPeerNetwork
from repro.sqlengine import Database
from repro.tpch import (
    Q3,
    Q4,
    Q5,
    SECONDARY_INDICES,
    TPCH_SCHEMAS,
    TpchGenerator,
    create_tpch_tables,
)

NUM_PEERS = 3


@pytest.fixture(scope="module")
def network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    generator = TpchGenerator(seed=17)
    for index in range(NUM_PEERS):
        net.add_peer(f"corp-{index}")
        net.load_peer(f"corp-{index}", generator.generate_peer(index))
    return net


@pytest.fixture(scope="module")
def oracle():
    db = Database()
    create_tpch_tables(db)
    generator = TpchGenerator(seed=17)
    for index in range(NUM_PEERS):
        for table, rows in generator.generate_peer(index).items():
            if table in ("nation", "region") and index > 0:
                continue
            db.table(table).insert_many(rows)
    return db


class TestCorrectness:
    def test_q3_matches_oracle(self, network, oracle):
        execution = network.execute(Q3(), engine="parallel")
        expected = oracle.execute(Q3())
        assert sorted(execution.records, key=repr) == sorted(
            expected.rows, key=repr
        )

    def test_q4_matches_oracle(self, network, oracle):
        execution = network.execute(Q4(), engine="parallel")
        expected = oracle.execute(Q4())
        assert {r[0]: r[1] for r in execution.records} == pytest.approx(
            {r[0]: r[1] for r in expected.rows}
        )

    def test_q5_matches_oracle(self, network, oracle):
        execution = network.execute(Q5(), engine="parallel")
        expected = oracle.execute(Q5())
        assert len(execution.records) == len(expected.rows)
        for got, want in zip(execution.records, expected.rows):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1])

    def test_single_table_aggregate(self, network, oracle):
        sql = "SELECT SUM(l_quantity) FROM lineitem"
        execution = network.execute(sql, engine="parallel")
        assert execution.scalar() == pytest.approx(oracle.execute(sql).scalar())

    def test_single_table_selection(self, network, oracle):
        sql = "SELECT l_orderkey FROM lineitem WHERE l_discount > 0.08"
        execution = network.execute(sql, engine="parallel")
        expected = oracle.execute(sql)
        assert sorted(execution.records) == sorted(expected.rows)


class TestParallelBehaviour:
    def test_strategy_label(self, network):
        assert network.execute(Q3(), engine="parallel").strategy == "parallel-p2p"

    def test_replication_ships_more_bytes_than_fetch(self, network):
        """The replicated join trades network cost for parallelism (§5.3)."""
        parallel = network.execute(Q5(), engine="parallel")
        basic = network.execute(Q5(), engine="basic")
        assert parallel.bytes_transferred > basic.bytes_transferred

    def test_per_level_timings_reported(self, network):
        execution = network.execute(Q5(), engine="parallel")
        level_keys = [k for k in execution.engine_details if k.startswith("level_")]
        # base scan + 3 joins + final collect
        assert len(level_keys) == 5

    def test_contacts_all_owner_peers(self, network):
        execution = network.execute(Q5(), engine="parallel")
        assert execution.peers_contacted == NUM_PEERS

    def test_each_stream_part_sized_once_per_level(self, monkeypatch):
        """Q3 at 4 peers: the 4 base parts are priced once for the join
        level (not once per receiving owner), the 4 joined parts once for
        the final collect."""
        from repro.core import engine_parallel

        peers = 4
        net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
        generator = TpchGenerator(seed=17)
        for index in range(peers):
            net.add_peer(f"corp-{index}")
            net.load_peer(f"corp-{index}", generator.generate_peer(index))
        sized = []
        records_byte_size = engine_parallel.records_byte_size

        def counted(records):
            sized.append(records)
            return records_byte_size(records)

        monkeypatch.setattr(engine_parallel, "records_byte_size", counted)
        execution = net.execute(Q3(), engine="parallel")
        assert execution.peers_contacted == peers
        assert len(sized) == 2 * peers
        for position, records in enumerate(sized):
            assert not any(records is other for other in sized[position + 1:])
