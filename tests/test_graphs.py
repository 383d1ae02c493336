"""Path walks of cfgbal.graphs on paths longer than the recursion limit;
tests/test_graph_walks.py compares them with the recursive walks."""

from cfgbal.distributions import point_mass
from cfgbal.instances import RoutingInstance
from cfgbal.offline import offline_routing
from cfgbal.online import run_online_routing

from conftest import tiny_rng

CHAIN = 10_000


def chain(length):
    return RoutingInstance(length + 1, [(i, i + 1, 1) for i in range(length)], [(0, length, point_mass(1))])


class TestLongPaths:
    """A path far longer than the interpreter's recursion limit."""

    def test_chain_routes_offline(self):
        report = offline_routing(chain(CHAIN), tiny_rng(0))
        assert report.lp_status == "feasible"
        assert report.assignment[0] == tuple(range(CHAIN))

    def test_chain_routes_online(self):
        run = run_online_routing(chain(CHAIN))
        assert {rec.request: rec.choice for rec in run.records} == {0: tuple(range(CHAIN))}

