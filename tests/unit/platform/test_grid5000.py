"""Unit tests for the Grid'5000 testbed builder (§5.1 layout)."""

import pytest

from repro.platform import (
    ClusterSpec,
    NODES_PER_SED,
    build_grid5000,
)
from repro.sim import Engine


@pytest.fixture
def platform():
    return build_grid5000(Engine())


def sed_hosts(platform):
    """Every SeD host, cluster by cluster in build order."""
    return [host for cluster in platform.clusters.values()
            for host in cluster.sed_hosts]


class TestPaperLayout:
    def test_five_sites_six_clusters(self, platform):
        assert len(platform.sites) == 5
        assert len(platform.clusters) == 6

    def test_lyon_has_two_clusters(self, platform):
        assert len(platform.sites["lyon"].clusters) == 2

    def test_eleven_seds(self, platform):
        """2 per cluster except one Lyon cluster with 1 (§5.1)."""
        assert len(sed_hosts(platform)) == 11

    def test_sagittaire_single_sed_from_reservation_cap(self, platform):
        sag = platform.clusters["lyon-sagittaire"]
        assert len(sag.sed_hosts) == 1

    def test_each_sed_controls_16_machines(self, platform):
        for host in sed_hosts(platform):
            assert host.properties["n_nodes"] == NODES_PER_SED

    def test_sed_speeds_match_machine_catalogue(self, platform):
        grillon = platform.clusters["nancy-grillon"]
        assert grillon.sed_hosts[0].speed == pytest.approx(2.6)
        violette = platform.clusters["toulouse-violette"]
        # efficiency-degraded Opteron 246
        assert violette.sed_hosts[0].speed == pytest.approx(2.0 * 0.91)

    def test_nancy_faster_than_toulouse(self, platform):
        """The Figure-4 spread source: Nancy fastest, Toulouse slowest."""
        speeds = {name: c.sed_hosts[0].speed
                  for name, c in platform.clusters.items()}
        assert max(speeds, key=speeds.get) == "nancy-grillon"
        assert min(speeds, key=speeds.get) == "toulouse-violette"

    def test_nfs_exported_to_cluster_seds_only(self, platform):
        chti = platform.clusters["lille-chti"]
        for host in chti.sed_hosts:
            assert chti.nfs.is_mounted_on(host.name)
        foreign = platform.clusters["nancy-grillon"].sed_hosts[0]
        assert not chti.nfs.is_mounted_on(foreign.name)

    def test_ma_and_client_share_a_lyon_node(self, platform):
        assert platform.ma_host is platform.client_host
        assert platform.ma_host.name.startswith("lyon")


class TestConnectivity:
    def test_all_seds_reachable_from_ma(self, platform):
        for host in sed_hosts(platform):
            route = platform.network.route(platform.ma_host.name, host.name)
            assert len(route) >= 2

    def test_wan_latency_exceeds_lan(self, platform):
        lan = platform.network.transfer_time(
            "lyon-ma", platform.clusters["lyon-capricorne"].sed_hosts[0].name, 0)
        wan = platform.network.transfer_time(
            "lyon-ma", platform.clusters["sophia-helios"].sed_hosts[0].name, 0)
        assert wan > lan

    def test_cluster_of_host(self, platform):
        sed = platform.clusters["lille-chti"].sed_hosts[1]
        assert platform.cluster_of_host(sed.name).full_name == "lille-chti"
        assert platform.cluster_of_host("renater-core") is None


class TestCustomLayouts:
    def test_custom_spec_list(self):
        specs = [ClusterSpec("nowhere", "tiny", "opteron-250", 32, n_seds=2)]
        platform = build_grid5000(Engine(), cluster_specs=specs)
        assert len(sed_hosts(platform)) == 2
        assert len(platform.sites) == 1

    def test_insufficient_nodes_limit_seds(self):
        # only one 16-node block fits in 20 nodes: two SeDs are refused
        with pytest.raises(ValueError, match="'s-c'"):
            ClusterSpec("s", "c", "opteron-246", 20, n_seds=2)
