"""Tests for Obladi configuration."""

import math
from dataclasses import replace

import pytest

from repro.core.config import ObladiConfig, RingOramConfig
from repro.sim.latency import CpuCostModel


class TestRingOramConfig:
    def test_to_parameters_uses_published_optima(self):
        params = RingOramConfig(num_blocks=1000, z_real=16).to_parameters()
        assert params.evict_rate == 20
        assert params.s_dummies == 25

    def test_overrides_respected(self):
        params = RingOramConfig(num_blocks=100, z_real=4, evict_rate=2,
                                s_dummies=8, max_stash_blocks=64).to_parameters()
        assert params.evict_rate == 2
        assert params.s_dummies == 8
        assert params.stash_bound == 64


class TestObladiConfig:
    def test_defaults_are_valid(self):
        config = ObladiConfig()
        assert config.epoch_read_capacity == config.read_batches * config.read_batch_size

    def test_epoch_length(self):
        config = ObladiConfig(read_batches=4, batch_interval_ms=10.0)
        assert config.epoch_length_ms == pytest.approx(40.0)

    def test_position_delta_padding_covers_epoch_capacity(self):
        config = ObladiConfig(read_batches=2, read_batch_size=10, write_batch_size=5)
        assert config.position_delta_pad_entries == 25

    def test_position_delta_padding_is_per_partition_when_sharded(self):
        config = ObladiConfig(read_batches=2, read_batch_size=10,
                              write_batch_size=5, shards=4)
        # R·ceil(b_read/N) + ceil(b_write/N) = 2·3 + 2
        assert config.position_delta_pad_entries == 8

    def test_with_backend_copies(self):
        config = ObladiConfig(backend="server")
        wan = config.with_backend("server_wan")
        assert wan.backend == "server_wan"
        assert config.backend == "server"
        assert wan.read_batches == config.read_batches

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ObladiConfig(read_batches=0)
        with pytest.raises(ValueError):
            ObladiConfig(read_batch_size=0)
        with pytest.raises(ValueError):
            ObladiConfig(batch_interval_ms=-1)
        with pytest.raises(ValueError):
            ObladiConfig(parallelism=0)
        with pytest.raises(ValueError):
            ObladiConfig(checkpoint_frequency=0)
        with pytest.raises(ValueError):
            ObladiConfig(conflict_strategy="optimism")

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_non_finite_batch_interval_rejected(self, interval):
        with pytest.raises(ValueError):
            ObladiConfig(batch_interval_ms=interval)

    def test_nan_cc_cost_rejected(self):
        with pytest.raises(ValueError):
            ObladiConfig(cost_model=CpuCostModel(cc_op_ms=math.nan))

    def test_infinite_cc_cost_rejected(self):
        with pytest.raises(ValueError):
            ObladiConfig(cost_model=CpuCostModel(cc_op_ms=math.inf))

    def test_negative_cc_cost_rejected(self):
        with pytest.raises(ValueError):
            ObladiConfig(cost_model=CpuCostModel(cc_op_ms=-0.5))

    @pytest.mark.parametrize("extra", [math.nan, math.inf, -5.0])
    def test_invalid_link_delay_rejected(self, extra):
        with pytest.raises(ValueError, match="link_extra_rtt_ms"):
            ObladiConfig(shards=2, storage_servers=2, link_extra_rtt_ms=(0.0, extra))

    def test_more_link_delays_than_servers_rejected(self):
        with pytest.raises(ValueError, match="link_extra_rtt_ms"):
            ObladiConfig(shards=2, storage_servers=2,
                         link_extra_rtt_ms=(0.0, 2.0, 1.0))
        with pytest.raises(ValueError, match="link_extra_rtt_ms"):
            ObladiConfig(shards=2, storage_servers=2).with_storage_servers(
                1, link_extra_rtt_ms=(0.0, 2.0))

    def test_valid_link_delays_accepted(self):
        config = ObladiConfig(shards=2, storage_servers=2, link_extra_rtt_ms=(0.0, 2.0))
        assert config.link_extra_rtt_ms == (0.0, 2.0)
        assert ObladiConfig(shards=2, storage_servers=2,
                            link_extra_rtt_ms=(3.0,)).link_extra_rtt_ms == (3.0,)

    def test_describe_mentions_batching(self):
        text = ObladiConfig().describe()
        assert "b_read" in text and "backend" in text


class TestWorkloadPresets:
    def test_tpcc_preset_has_deep_epochs_and_large_write_batch(self):
        tpcc = ObladiConfig().with_workload("tpcc")
        smallbank = ObladiConfig().with_workload("smallbank")
        assert tpcc.read_batches > smallbank.read_batches
        assert tpcc.write_batch_size > smallbank.write_batch_size

    def test_freehealth_preset_is_read_mostly(self):
        freehealth = ObladiConfig().with_workload("freehealth")
        assert freehealth.write_batch_size < freehealth.epoch_read_capacity

    def test_preset_overrides(self):
        config = (ObladiConfig().with_workload("ycsb")
                  .with_batching(read_batch_size=123).with_backend("dynamo"))
        assert config.read_batch_size == 123
        assert config.backend == "dynamo"

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            ObladiConfig().with_workload("olap")

    def test_custom_oram_config_accepted(self):
        oram = RingOramConfig(num_blocks=50, z_real=4)
        config = ObladiConfig().with_workload("smallbank").with_oram(oram)
        assert config.oram.num_blocks == 50

    def test_preset_sets_the_epoch_shape_and_nothing_else(self):
        config = ObladiConfig().with_workload("tpcc")
        assert (config.read_batches, config.read_batch_size,
                config.write_batch_size, config.batch_interval_ms) == (8, 96, 192, 10.0)
        assert replace(config, read_batches=4, read_batch_size=64,
                       write_batch_size=64, batch_interval_ms=5.0) == ObladiConfig()

    def test_later_builder_overrides_the_preset(self):
        config = (ObladiConfig().with_workload("tpcc")
                  .with_batching(read_batches=2, batch_interval_ms=1.0))
        assert (config.read_batches, config.batch_interval_ms) == (2, 1.0)
        assert (config.read_batch_size, config.write_batch_size) == (96, 192)


class TestBuilders:
    """``ObladiConfig`` is the one configuration type, built fluently."""

    def test_engine_config_is_obladi_config(self):
        from repro.api import EngineConfig
        assert EngineConfig is ObladiConfig

    @pytest.mark.parametrize("build", [
        lambda c: c.with_workload("tpcc"),
        lambda c: c.with_backend("server_wan"),
        lambda c: c.with_oram(num_blocks=64, z_real=4),
        lambda c: c.with_batching(read_batches=2),
        lambda c: c.with_sharding(4),
        lambda c: c.with_storage_servers(1, link_extra_rtt_ms=(1.0,)),
        lambda c: c.with_proxy_workers(3),
        lambda c: c.with_conflict_strategy("repair"),
        lambda c: c.with_parallelism(8),
        lambda c: c.with_durability(False, checkpoint_frequency=2),
        lambda c: c.with_encryption(False),
        lambda c: c.with_cc_cost(0.5),
        lambda c: c.with_seed(11),
    ])
    def test_builder_returns_a_new_config_and_leaves_the_receiver(self, build):
        receiver = ObladiConfig()
        built = build(receiver)
        assert built is not receiver
        assert built != receiver
        assert receiver == ObladiConfig()

    def test_with_oram_fields_apply_on_top_of_the_current_sizing(self):
        config = ObladiConfig().with_oram(num_blocks=64).with_oram(z_real=4)
        assert (config.oram.num_blocks, config.oram.z_real) == (64, 4)
        whole = config.with_oram(RingOramConfig(num_blocks=32), block_size=96)
        assert whole.oram == RingOramConfig(num_blocks=32, block_size=96)

    def test_with_cc_cost_keeps_the_rest_of_the_cost_model(self):
        config = ObladiConfig().with_cc_cost(0.25)
        assert config.cost_model == replace(CpuCostModel(), cc_op_ms=0.25)

    @pytest.mark.parametrize("build", [
        lambda c: c.with_proxy_workers(0),
        lambda c: c.with_storage_servers(3),
        lambda c: c.with_conflict_strategy("optimism"),
    ])
    def test_invalid_value_raises_at_the_builder_call(self, build):
        with pytest.raises(ValueError):
            build(ObladiConfig().with_sharding(2))


class TestProxyWorkersConfig:
    """Validation matrix for the proxy-tier knob (``proxy_workers``)."""

    def test_default_is_single_proxy(self):
        assert ObladiConfig().proxy_workers == 1

    @pytest.mark.parametrize("workers", [0, -1, -7])
    def test_non_positive_worker_counts_rejected(self, workers):
        with pytest.raises(ValueError):
            ObladiConfig(proxy_workers=workers)

    def test_error_message_documents_knob_interactions(self):
        """The rejection explains how proxy_workers relates to shards and
        storage_servers (it is orthogonal to both)."""
        with pytest.raises(ValueError) as excinfo:
            ObladiConfig(proxy_workers=0, shards=4, storage_servers=2)
        message = str(excinfo.value)
        assert "proxy worker" in message
        assert "shards" in message and "storage_servers" in message
        assert "independent" in message

    @pytest.mark.parametrize("workers,shards,servers", [
        (1, 1, 1), (4, 1, 1), (2, 4, 1), (4, 4, 4), (8, 2, 2), (3, 8, 4),
    ])
    def test_workers_orthogonal_to_data_topology(self, workers, shards, servers):
        config = ObladiConfig(proxy_workers=workers, shards=shards,
                              storage_servers=servers)
        assert config.proxy_workers == workers
        assert config.shards == shards
        assert config.storage_servers == servers

    def test_data_topology_validation_still_applies(self):
        with pytest.raises(ValueError):
            ObladiConfig(proxy_workers=4, shards=2, storage_servers=4)

    def test_describe_mentions_workers_only_when_sharded(self):
        assert "proxy_workers" not in ObladiConfig().describe()
        assert "proxy_workers=4" in ObladiConfig(proxy_workers=4).describe()

    def test_engine_config_round_trip(self):
        config = ObladiConfig().with_workload("smallbank").with_proxy_workers(4)
        assert config.proxy_workers == 4
        # Unset, the system default of 1 stays.
        assert ObladiConfig().with_workload("smallbank").proxy_workers == 1

    def test_invalid_worker_count_raises_at_the_builder(self):
        with pytest.raises(ValueError):
            ObladiConfig().with_workload("smallbank").with_proxy_workers(0)
