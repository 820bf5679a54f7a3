"""Tests for the backend latency models and CPU cost model."""

import pytest

from repro.sim.latency import (BACKENDS, CpuCostModel, LatencyModel, NetworkConditions,
                               get_latency_model)


class TestBackendCatalogue:
    def test_all_four_paper_backends_exist(self):
        assert set(BACKENDS) == {"dummy", "server", "server_wan", "dynamo"}

    def test_dummy_has_zero_round_trip(self):
        assert BACKENDS["dummy"].read_rtt_ms == 0.0
        assert BACKENDS["dummy"].write_rtt_ms == 0.0

    def test_server_matches_paper_ping(self):
        assert BACKENDS["server"].read_rtt_ms == pytest.approx(0.3)

    def test_wan_matches_paper_ping(self):
        assert BACKENDS["server_wan"].read_rtt_ms == pytest.approx(10.0)

    def test_dynamo_writes_slower_than_reads(self):
        dynamo = BACKENDS["dynamo"]
        assert dynamo.write_rtt_ms > dynamo.read_rtt_ms

    def test_dynamo_has_smallest_parallelism_cap(self):
        caps = {name: model.max_parallel_requests for name, model in BACKENDS.items()}
        assert caps["dynamo"] == min(caps.values())

    def test_latency_ordering_matches_paper(self):
        assert (BACKENDS["dummy"].read_rtt_ms < BACKENDS["server"].read_rtt_ms
                < BACKENDS["dynamo"].read_rtt_ms < BACKENDS["server_wan"].read_rtt_ms)


class TestLatencyModel:
    def test_effective_parallelism_applies_both_caps(self):
        model = LatencyModel(name="x", read_rtt_ms=1.0, write_rtt_ms=1.0,
                             max_parallel_requests=8)
        assert model.effective_parallelism(64) == 8
        assert model.effective_parallelism(4) == 4

    def test_effective_parallelism_is_at_least_one(self):
        model = LatencyModel(name="x", read_rtt_ms=1.0, write_rtt_ms=1.0,
                             max_parallel_requests=8)
        assert model.effective_parallelism(0) == 1


class TestGetLatencyModel:
    def test_resolves_by_name(self):
        assert get_latency_model("server").name == "server"

    def test_passes_through_model_instances(self):
        model = BACKENDS["dynamo"]
        assert get_latency_model(model) is model

    def test_unknown_name_raises_with_valid_names(self):
        with pytest.raises(KeyError) as err:
            get_latency_model("s3")
        assert "server" in str(err.value)


class TestNetworkConditions:
    def test_adds_extra_round_trip(self):
        base = BACKENDS["server"]
        wan = NetworkConditions(base=base, extra_rtt_ms=9.7).resolve()
        assert wan.read_rtt_ms == pytest.approx(base.read_rtt_ms + 9.7)
        assert wan.write_rtt_ms == pytest.approx(base.write_rtt_ms + 9.7)

    def test_preserves_other_fields(self):
        base = BACKENDS["dynamo"]
        wan = NetworkConditions(base=base, extra_rtt_ms=5.0).resolve()
        assert wan.max_parallel_requests == base.max_parallel_requests
        assert wan.dispatch_ms_per_request == base.dispatch_ms_per_request

    def test_network_conditions_caches_resolution(self):
        overlay = NetworkConditions(base=BACKENDS["server"], extra_rtt_ms=1.0)
        assert overlay.resolve() is overlay.resolve()


class TestCpuCostModel:
    def test_sequential_cost_includes_crypto_when_encrypted(self):
        cm = CpuCostModel()
        assert cm.sequential_block_cost_ms(True) > cm.sequential_block_cost_ms(False)

    def test_costs_are_positive(self):
        cm = CpuCostModel()
        assert cm.sequential_block_cost_ms(False) > 0


class TestLinkLatencyModels:
    def test_homogeneous_links_reuse_the_base_model(self):
        from repro.sim.latency import link_latency_models
        models = link_latency_models("server", 4)
        assert len(models) == 4
        assert all(model is BACKENDS["server"] for model in models)

    def test_per_link_extra_rtt_and_padding(self):
        from repro.sim.latency import link_latency_models
        models = link_latency_models("server", 3, link_extra_rtt_ms=(2.0,))
        assert models[0].read_rtt_ms == pytest.approx(2.3)
        assert models[0].name == "server_s0"
        # Links beyond the provided sequence fall back to the base model.
        assert models[1] is BACKENDS["server"]
        assert models[2] is BACKENDS["server"]
