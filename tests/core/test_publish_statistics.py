"""Index publication and network statistics read per-table facts without a
full statistics scan; the values must equal what ``collect_table_stats``
reports."""

from repro.core import BestPeerNetwork
from repro.sqlengine import Column, ColumnType, TableSchema
from repro.sqlengine.stats import collect_table_stats, column_bounds


def schemas():
    return {
        "part": TableSchema(
            "part",
            [
                Column("p_id", ColumnType.INTEGER),
                Column("p_name", ColumnType.TEXT),
                Column("p_price", ColumnType.FLOAT),
                Column("p_date", ColumnType.DATE),
            ],
        )
    }


# NULLs in every range column, repeated extremes, ints that coerce to
# floats, and an all-NULL column on one peer.
DATA = {
    "p1": [
        (3, "bolt", 2, "1995-03-01"),
        (1, None, 7.5, None),
        (2, "anvil", None, "1993-01-02"),
        (2, "anvil", 7.5, "1993-01-02"),
    ],
    "p2": [(9, "zinc", None, None), (8, "axe", None, None)],
}
RANGE_COLUMNS = {"part": ["p_name", "p_price", "p_date"]}


def build():
    net = BestPeerNetwork(schemas())
    for peer_id, rows in DATA.items():
        net.add_peer(peer_id)
        net.load_peer(peer_id, {"part": rows}, range_columns=RANGE_COLUMNS)
    return net


def published_ranges(net, peer_id):
    entries, _, _ = net.indexers[peer_id].range_entries_for_table("part")
    return {
        (entry.peer_id, entry.column): (entry.low, entry.high)
        for entry in entries
    }


def expected_ranges(net):
    expected = {}
    for peer_id, peer in net.peers.items():
        stats = collect_table_stats(peer.database.table("part"))
        for column in RANGE_COLUMNS["part"]:
            column_stats = stats.columns[column]
            expected[(peer_id, column)] = (
                column_stats.minimum,
                column_stats.maximum,
            )
    return expected


class TestPublishedRanges:
    def test_range_entries_equal_collected_stats(self):
        net = build()
        assert published_ranges(net, "p1") == expected_ranges(net)
        assert published_ranges(net, "p2")[("p2", "p_price")] == (None, None)

    def test_range_entries_follow_a_refresh(self):
        net = build()
        net.refresh_peer(
            "p1",
            "part",
            [(4, "crate", 0.5, "1999-12-31"), (5, "bolt", 99, None)],
            range_columns=RANGE_COLUMNS,
        )
        assert published_ranges(net, "p1") == expected_ranges(net)

    def test_column_bounds_matches_collect_table_stats(self):
        net = build()
        for peer in net.peers.values():
            table = peer.database.table("part")
            stats = collect_table_stats(table)
            for column in table.schema.column_names:
                bounds = column_bounds(table, column.upper())
                assert bounds == (
                    stats.columns[column].minimum,
                    stats.columns[column].maximum,
                )


class TestNetworkStatistics:
    def test_statistics_equal_collected_stats(self):
        net = build()
        collected = [
            collect_table_stats(peer.database.table("part"))
            for peer in net.peers.values()
        ]
        entry = net.statistics["part"]
        assert entry.row_count == sum(stats.row_count for stats in collected)
        assert entry.total_bytes == sum(stats.byte_size for stats in collected)
