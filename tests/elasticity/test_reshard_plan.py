"""Unit tests for reshard plans and the operator who stages them.

A :class:`~repro.elasticity.ReshardPlan` is pure data: resolving it against
a configuration yields the target topology, bumping the topology generation
exactly when data has to move.  Staging one is an operator action, so the
epoch a reshard starts at is the operator's choice, not the load's — the
last test pins that through ``Leakage.reshards``.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis import leakage
from repro.api import EngineConfig, PoissonArrivals, create_engine
from repro.audit import EngineObserver
from repro.core.client import Read, Write
from repro.core.config import ObladiConfig
from repro.elasticity import ReshardPlan

KNOBS = ("shards", "storage_servers", "proxy_workers")

#: A deployment every knob can move away from in either direction.
SOURCE = ObladiConfig(shards=2, storage_servers=2, proxy_workers=2)


def test_a_plan_must_name_a_knob():
    with pytest.raises(ValueError, match="at least one topology knob"):
        ReshardPlan()


@pytest.mark.parametrize("knob", KNOBS)
def test_a_knob_below_one_is_rejected_at_construction(knob):
    with pytest.raises(ValueError, match=knob):
        ReshardPlan(**{knob: 0})


def test_unnamed_knobs_keep_the_current_topology():
    assert ReshardPlan(shards=4).target_topology(SOURCE) == (4, 2, 2)
    assert ReshardPlan(storage_servers=1).target_topology(SOURCE) == (2, 1, 2)
    assert ReshardPlan(proxy_workers=4).target_topology(SOURCE) == (2, 2, 4)


def test_a_plan_naming_the_current_topology_is_a_noop():
    plan = ReshardPlan(shards=2, storage_servers=2, proxy_workers=2)
    assert plan.is_noop(SOURCE)
    assert not plan.requires_migration(SOURCE)
    assert plan.resolve(SOURCE) == SOURCE


@pytest.mark.parametrize("knob, value", [("shards", 4), ("storage_servers", 1)])
def test_moving_data_bumps_the_generation(knob, value):
    plan = ReshardPlan(**{knob: value})
    assert not plan.is_noop(SOURCE)
    assert plan.requires_migration(SOURCE)
    target = plan.resolve(SOURCE)
    assert getattr(target, knob) == value
    assert target.generation == SOURCE.generation + 1
    assert target.generation_prefix == "g1/"
    assert SOURCE.generation_prefix == ""


def test_a_proxy_worker_change_moves_no_data():
    plan = ReshardPlan(proxy_workers=4)
    assert not plan.is_noop(SOURCE)
    assert not plan.requires_migration(SOURCE)
    target = plan.resolve(SOURCE)
    assert target.proxy_workers == 4
    assert target.generation == SOURCE.generation


def test_resolve_carries_every_other_field_over():
    source = replace(SOURCE, read_batches=5, write_batch_size=7,
                     conflict_strategy="repair", checkpoint_frequency=3)
    target = ReshardPlan(shards=4, storage_servers=4, proxy_workers=1).resolve(source)
    # Put the topology back and the two configurations agree field for field.
    assert replace(target, shards=source.shards,
                   storage_servers=source.storage_servers,
                   proxy_workers=source.proxy_workers,
                   generation=source.generation) == source


def test_a_scale_down_drops_the_idle_servers_link_delays():
    source = replace(SOURCE, link_extra_rtt_ms=(0.0, 4.0))
    assert ReshardPlan(storage_servers=1).resolve(source).link_extra_rtt_ms == (0.0,)
    assert ReshardPlan(shards=4, storage_servers=4).resolve(source) \
        .link_extra_rtt_ms == (0.0, 4.0)


def test_successive_reshards_count_up_the_generations():
    first = ReshardPlan(shards=4).resolve(SOURCE)
    second = ReshardPlan(storage_servers=4).resolve(first)
    third = ReshardPlan(proxy_workers=1).resolve(second)
    assert [c.generation for c in (first, second, third)] == [1, 2, 2]
    assert (third.shards, third.storage_servers, third.proxy_workers) == (4, 4, 1)


def test_an_inconsistent_target_fails_before_any_data_moves():
    """More storage servers than partitions is valid as a plan (each knob is
    checked on its own) but not as a target: resolving it fails loudly."""
    plan = ReshardPlan(storage_servers=4)
    with pytest.raises(ValueError, match="storage_servers must not exceed shards"):
        plan.resolve(SOURCE)


class StageReshard(EngineObserver):
    """Stages ``plan`` once ``waves`` waves have run, as an operator would,
    and notes how many epochs the engine had executed at that moment."""

    def __init__(self, waves, plan):
        self.waves = waves
        self.plan = plan
        self.staged_at_epoch = None

    def on_wave(self, engine, results):
        self.waves -= 1
        if self.waves == 0:
            self.staged_at_epoch = engine.stats().epochs
            engine.reshard(self.plan)


@pytest.mark.parametrize("rate_tps, seed", [(50.0, 3), (400.0, 1)])
def test_the_reshard_epoch_is_the_operators_choice(rate_tps, seed):
    """Offered load sets how many epochs a run takes, but not when a staged
    reshard starts: ``Leakage.reshards`` names the epoch the operator staged
    it at, whatever the arrival rate and the workload."""
    config = (EngineConfig()
              .with_oram(num_blocks=256, z_real=4, block_size=96)
              .with_batching(read_batches=3, read_batch_size=8,
                             write_batch_size=8)
              .with_backend("dummy")
              .with_encryption(False)
              .with_seed(17))
    engine = create_engine("obladi", config)
    engine.load_initial_data({f"k{i}": b"0" for i in range(32)})
    operator = StageReshard(3, ReshardPlan(shards=4, storage_servers=2))
    engine.attach_observer(operator)
    rng = random.Random(seed)

    def source():
        key = f"k{rng.randrange(32)}"

        def program():
            value = yield Read(key)
            yield Write(key, value + b"x")
        return program()

    engine.run_open_loop(source, 80, arrivals=PoissonArrivals(rate_tps, seed=seed),
                         clients=4, queue_limit=8)
    for _ in range(40):
        if not engine.reshard_in_flight:
            break
        engine.submit_many([])
    assert not engine.reshard_in_flight, "migration never completed"
    stats = engine.stats()
    assert stats.epochs > operator.staged_at_epoch
    ((first_epoch, target, _),) = leakage(config, stats).reshards
    assert first_epoch == operator.staged_at_epoch == 3
    assert (target.shards, target.storage_servers, target.generation) == (4, 2, 1)
