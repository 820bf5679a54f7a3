"""YCSB-style key-value microbenchmark.

The paper uses the YCSB generator for its microbenchmarks (Figure 10): a
fixed population of records accessed with a configurable read/update mix and
key distribution (uniform or Zipfian).  This module provides both

* raw key streams for the ORAM-level experiments (batch-size sweeps and
  parallelism measurements operate below the transaction layer), and
* transaction programs for proxy-level experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.client import ReadMany, Write
from repro.workloads.records import encode_record, make_key


@dataclass(frozen=True)
class YCSBConfig:
    """Parameters of a YCSB workload instance."""

    num_records: int = 10_000
    value_size: int = 100
    read_proportion: float = 0.5
    update_proportion: float = 0.5
    ops_per_transaction: int = 4
    distribution: str = "uniform"        # "uniform" or "zipfian"
    zipfian_theta: float = 0.99
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_records < 1:
            raise ValueError("num_records must be positive")
        if not math.isclose(self.read_proportion + self.update_proportion, 1.0, abs_tol=1e-6):
            raise ValueError("read and update proportions must sum to 1")
        if self.distribution not in ("uniform", "zipfian"):
            raise ValueError("distribution must be 'uniform' or 'zipfian'")


class ZipfianGenerator:
    """Zipfian key index generator (the YCSB 'scrambled zipfian' shape).

    Uses the Gray/Jim Gray rejection-free method: precomputing zeta over the
    key space and inverting the CDF approximation.
    """

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.theta = theta
        self.rng = rng
        self.zetan = self._zeta(n, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self.zeta2 / self.zetan)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next_index(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * ((self.eta * u - self.eta + 1) ** self.alpha)) % self.n


class YCSBWorkload:
    """Key/operation generator plus transaction factories."""

    def __init__(self, config: Optional[YCSBConfig] = None) -> None:
        self.config = config if config is not None else YCSBConfig()
        self.rng = random.Random(self.config.seed)
        self._zipf: Optional[ZipfianGenerator] = None
        if self.config.distribution == "zipfian":
            self._zipf = ZipfianGenerator(self.config.num_records, self.config.zipfian_theta,
                                          self.rng)

    # ------------------------------------------------------------------ #
    # Keys and values
    # ------------------------------------------------------------------ #
    def key(self, index: int) -> str:
        return make_key("ycsb", index)

    def value(self, index: int) -> bytes:
        """A record payload of roughly ``value_size`` bytes."""
        filler = "x" * max(0, self.config.value_size - 24)
        return encode_record({"id": index, "f": filler})

    def initial_data(self) -> Dict[str, bytes]:
        """The full populated record set (used by proxy-level experiments)."""
        return {self.key(i): self.value(i) for i in range(self.config.num_records)}

    def next_key_index(self) -> int:
        if self._zipf is not None:
            return self._zipf.next_index()
        return self.rng.randrange(self.config.num_records)

    def operation_stream(self, count: int) -> List[Tuple[str, str, Optional[bytes]]]:
        """``(op, key, value)`` triples following the read/update mix."""
        ops: List[Tuple[str, str, Optional[bytes]]] = []
        for _ in range(count):
            index = self.next_key_index()
            if self.rng.random() < self.config.read_proportion:
                ops.append(("read", self.key(index), None))
            else:
                ops.append(("update", self.key(index), self.value(index)))
        return ops

    # ------------------------------------------------------------------ #
    # Transaction programs
    # ------------------------------------------------------------------ #
    def transaction_factory(self) -> Callable[[], Iterator]:
        """A factory producing one random multi-operation transaction.

        YCSB operations are independent point accesses, so the program reads
        all its keys in one round and then applies its updates.
        """
        ops = self.operation_stream(self.config.ops_per_transaction)

        def program():
            read_keys = [key for op, key, _value in ops if op == "read"]
            observed = {}
            if read_keys:
                observed = yield ReadMany(read_keys)
            for op, key, value in ops:
                if op == "update":
                    yield Write(key, value)
            return observed

        return program
