"""Simulated numbers pinned exactly.

Wall-clock work (faster sizers, staging, shuffles) must leave every
simulated figure bit-identical: a query's strategy, latency, bytes, dollar
cost and MemTable spills are functions of the data and the cost model,
not of how fast the host runs the code.  Each value below was recorded
before such a change; if one moves, behaviour changed.

Runs Q3-Q5 under every engine on a fresh 4-peer bench-harness network, in
this fixed order (index caches and the adaptive planner's feedback make
later queries depend on earlier ones).
"""

import pytest

from repro.bench.harness import get_bestpeer_network
from repro.tpch import Q3, Q4, Q5

QUERIES = (("Q3", Q3()), ("Q4", Q4()), ("Q5", Q5()))
ENGINES = ("basic", "parallel", "mapreduce", "adaptive")

# (strategy, latency_s, bytes_transferred, dollar_cost, memtable_spills)
EXPECTED = {
    ('Q3', 'basic'): ('fetch-and-process', 0.7893936000000001, 7332, 2.1941280000000005e-05, 2),
    ('Q3', 'parallel'): ('parallel-p2p', 0.6484800000000001, 22292, 2.7785866666666668e-05, 0),
    ('Q3', 'mapreduce'): ('mapreduce', 13.91544355, 34282, 0.0003298012788888889, 0),
    ('Q3', 'adaptive'): ('fetch-and-process', 0.7875936000000001, 7332, 2.1901280000000005e-05, 2),
    ('Q4', 'basic'): ('fetch-and-process', 1.9281540000000004, 33736, 6.308946666666667e-05, 2),
    ('Q4', 'parallel'): ('parallel-p2p', 1.3496052000000003, 145536, 0.00011731282666666668, 0),
    ('Q4', 'mapreduce'): ('mapreduce', 27.51548289, 87064, 0.0006636935753333334, 0),
    ('Q4', 'adaptive'): ('mapreduce', 27.51548289, 87064, 0.0006636935753333334, 0),
    ('Q5', 'basic'): ('fetch-and-process', 16.9760736, 351440, 0.0005881100800000001, 4),
    ('Q5', 'parallel'): ('parallel-p2p', 14.120544960000002, 2807920, 0.0019985418880000003, 0),
    ('Q5', 'mapreduce'): ('mapreduce', 59.54553252499999, 1473656, 0.002207427656111111, 0),
    ('Q5', 'adaptive'): ('fetch-and-process', 16.974873600000002, 351440, 0.0005880834133333334, 4),
}


@pytest.fixture(scope="module")
def executions():
    # Unmemoized: a shared network's caches would carry other tests' state.
    network = get_bestpeer_network.__wrapped__(4)
    return {
        (name, engine): network.execute(sql, engine=engine, user="bench")
        for name, sql in QUERIES
        for engine in ENGINES
    }


@pytest.mark.parametrize("key", list(EXPECTED), ids="-".join)
def test_simulated_numbers_unchanged(executions, key):
    execution = executions[key]
    assert (
        execution.strategy,
        execution.latency_s,
        execution.bytes_transferred,
        execution.dollar_cost,
        execution.memtable_spills,
    ) == EXPECTED[key]
