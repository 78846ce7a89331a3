"""Tests for longest-prefix-match routing tables."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.addressing import IPAddress, Network
from repro.netsim.routing import RoutingTable


class TestLookup:
    def test_longest_prefix_wins(self):
        table = RoutingTable()
        table.add(Network("10.0.0.0/8"), "coarse")
        table.add(Network("10.1.0.0/16"), "fine")
        route = table.lookup(IPAddress("10.1.2.3"))
        assert route is not None and route.interface == "fine"

    def test_default_route_matches_everything(self):
        table = RoutingTable()
        table.add_default("uplink", IPAddress("192.0.2.1"))
        route = table.lookup(IPAddress("8.8.8.8"))
        assert route is not None and route.interface == "uplink"

    def test_specific_beats_default(self):
        table = RoutingTable()
        table.add_default("uplink", IPAddress("192.0.2.1"))
        table.add(Network("10.1.0.0/16"), "lan")
        assert table.lookup(IPAddress("10.1.0.5")).interface == "lan"
        assert table.lookup(IPAddress("11.0.0.1")).interface == "uplink"

    def test_metric_breaks_equal_length_ties(self):
        table = RoutingTable()
        table.add(Network("10.1.0.0/16"), "worse", metric=10)
        table.add(Network("10.1.0.0/16"), "better", metric=1)
        assert table.lookup(IPAddress("10.1.0.1")).interface == "better"

    def test_no_match_returns_none(self):
        table = RoutingTable()
        table.add(Network("10.1.0.0/16"), "lan")
        assert table.lookup(IPAddress("11.0.0.1")) is None

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_chosen_route_always_contains_destination(self, value):
        table = RoutingTable()
        table.add(Network("0.0.0.0/0"), "default")
        table.add(Network("10.0.0.0/8"), "eight")
        table.add(Network("10.1.0.0/16"), "sixteen")
        table.add(Network("10.1.2.0/24"), "twentyfour")
        destination = IPAddress(value)
        route = table.lookup(destination)
        assert route is not None
        assert route.prefix.contains(destination)
        # And no other route is strictly longer while still matching.
        for other in table.routes:
            if other.prefix.contains(destination):
                assert other.prefix.prefix_len <= route.prefix.prefix_len


class TestMutation:
    def test_remove_prefix(self):
        table = RoutingTable()
        table.add(Network("10.1.0.0/16"), "a")
        table.add(Network("10.1.0.0/16"), "b", metric=5)
        table.add(Network("10.2.0.0/16"), "c")
        removed = table.remove_prefix(Network("10.1.0.0/16"))
        assert removed == 2
        assert len(table) == 1

    def test_clear(self):
        table = RoutingTable()
        table.add(Network("10.1.0.0/16"), "a")
        table.clear()
        assert len(table) == 0
        assert table.lookup(IPAddress("10.1.0.1")) is None

    def test_string_form_lists_routes(self):
        table = RoutingTable()
        table.add(Network("10.1.0.0/16"), "eth0", gateway=IPAddress("10.1.0.1"))
        rendered = str(table)
        assert "10.1.0.0/16" in rendered
        assert "via 10.1.0.1" in rendered

    def test_empty_table_renders_placeholder(self):
        assert "empty" in str(RoutingTable())


# Prefix bases that nest and collide, so random tables hold overlapping
# prefixes, duplicate prefixes and metric ties.
_BASES = (0x0A000000, 0x0A010000, 0x0A010200, 0x0A0102FF, 0xC0A80100, 0xFFFFFFFF)


def _prefix(base: int, length: int) -> Network:
    return Network(str(IPAddress(base & Network._mask_for(length))), length)


_PREFIXES = st.builds(_prefix, st.sampled_from(_BASES), st.integers(0, 32))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), _PREFIXES, st.integers(0, 2)),
    st.tuples(st.just("remove"), _PREFIXES),
    st.tuples(st.just("clear")),
), max_size=40)
_DESTINATIONS = st.lists(st.one_of(
    st.sampled_from(_BASES), st.integers(0, 2**32 - 1)), min_size=1, max_size=8)


def _reference_lookup(routes, destination):
    """The brute-force scan over routes in the order they were added:
    longest prefix, then lowest metric, then the first added."""
    best = None
    for route in routes:
        if not route.prefix.contains(destination):
            continue
        if best is None or route.prefix.prefix_len > best.prefix.prefix_len or (
            route.prefix.prefix_len == best.prefix.prefix_len
            and route.metric < best.metric
        ):
            best = route
    return best


class TestLookupOrder:
    @settings(max_examples=300)
    @given(_OPS, _DESTINATIONS)
    def test_lookup_picks_the_reference_route(self, ops, destinations):
        destinations = [IPAddress(value) for value in (*_BASES, *destinations)]
        table, added = RoutingTable(), []
        for op in ops:
            if op[0] == "add":
                added.append(table.add(op[1], f"if{len(added)}", metric=op[2]))
            elif op[0] == "remove":
                removed = table.remove_prefix(op[1])
                kept = [route for route in added if route.prefix != op[1]]
                assert removed == len(added) - len(kept)
                added = kept
            else:
                table.clear()
                added = []
            assert sorted(map(id, table.routes)) == sorted(map(id, added))
            for destination in destinations:
                assert table.lookup(destination) is _reference_lookup(added, destination)
        rebuilt = RoutingTable(added)
        for destination in destinations:
            assert rebuilt.lookup(destination) is _reference_lookup(added, destination)
