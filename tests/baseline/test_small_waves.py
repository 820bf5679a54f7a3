"""Every small wave resolves on both baselines.

A shape is an ordered pair of distinct keys over ``a``/``b``/``c`` crossed
with write-write, read-then-write and read-read: 18 shapes, so 18³ = 5 832
three-program waves, each run on a fresh engine of each baseline.  Every
program must resolve once with a distinct txn id, the wave's history must be
serializable, and every abort must carry a reason the engine's protocol can
justify.  In particular no 2PL wave ever leaves every transaction blocked:
the wave loop would raise ``RuntimeError`` on an unresolved program.
"""

import itertools

import pytest

from repro.baseline import MySQLEngine, NoPrivEngine
from repro.concurrency.serializability import check_serializable
from repro.core.client import Read, Write

KEYS = "abc"


def shape(kind, first, second):
    def factory():
        def program():
            if kind == "write-write":
                yield Write(first, b"w")
                yield Write(second, b"w")
                return None
            value = yield Read(first)
            if kind == "read-then-write":
                yield Write(second, (value or b"") + b"+")
                return value
            return value, (yield Read(second))
        return program()
    return factory


SHAPES = [shape(kind, first, second)
          for first, second in itertools.permutations(KEYS, 2)
          for kind in ("write-write", "read-then-write", "read-read")]


@pytest.mark.parametrize("engine_type, allowed_aborts", [
    (NoPrivEngine, {"write_conflict", "cascade"}),
    (MySQLEngine, {"deadlock"}),
], ids=["nopriv", "mysql"])
def test_every_three_program_wave_resolves(engine_type, allowed_aborts):
    assert len(SHAPES) == 18
    reasons = set()
    waves = 0
    for wave in itertools.product(SHAPES, repeat=3):
        engine = engine_type()
        engine.load_initial_data({key: b"0" for key in KEYS})
        results = engine.submit_many(list(wave))
        assert len({result.txn_id for result in results}) == 3
        reasons.update(result.abort_reason for result in results
                       if not result.committed)
        assert len(engine.committed_history) == \
            sum(result.committed for result in results)
        ok, cycle = check_serializable(engine.committed_history)
        assert ok, (wave, cycle)
        waves += 1
    assert waves == 18 ** 3
    assert reasons and reasons <= allowed_aborts
