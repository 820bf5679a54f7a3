"""Latency and CPU cost models for the evaluation's storage backends.

Section 11.2 of the paper instantiates the ORAM over four backends:

* ``dummy``   — a local no-op store (0.0 ms "network"), used to expose CPU
  bottlenecks of the proxy itself;
* ``server``  — a remote in-memory hash map with a 0.3 ms ping;
* ``server_wan`` — the same store behind a 10 ms WAN ping;
* ``dynamo``  — DynamoDB provisioned at 80K req/s, ~1 ms reads and ~3 ms
  writes, with a client API that issues *blocking* HTTP calls and therefore
  caps usable parallelism early.

The reproduction charges each physical storage request a round-trip latency
from these models and each unit of proxy work a CPU cost from
:class:`CpuCostModel`.  The CPU constants are calibrated so the *relative*
magnitudes match the paper's observations (metadata computation dominates on
``dummy``; the network dominates everywhere else); they are not wall-clock
measurements of this Python code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class LatencyModel:
    """Round-trip latency model for an untrusted storage backend.

    Attributes
    ----------
    name:
        Identifier used throughout the harness (``dummy``, ``server``, ...).
    read_rtt_ms / write_rtt_ms:
        Round-trip time of a single physical read / write request.
    max_parallel_requests:
        How many physical requests the backend (or its client library) can
        usefully serve concurrently.  DynamoDB's blocking HTTP client caps
        this early, as the paper notes for Figure 10b.
    per_request_server_ms:
        Server-side service time added per request even when requests are
        pipelined; models the provisioned-throughput ceiling.
    """

    name: str
    read_rtt_ms: float
    write_rtt_ms: float
    max_parallel_requests: int = 256
    per_request_server_ms: float = 0.0
    dispatch_ms_per_request: float = 0.0

    def effective_parallelism(self, proxy_parallelism: int) -> int:
        """Parallelism usable once both proxy and backend caps are applied."""
        return max(1, min(proxy_parallelism, self.max_parallel_requests))


@dataclass(frozen=True)
class CpuCostModel:
    """Proxy-side CPU costs charged to the simulated clock (milliseconds).

    The constants model, per physical block: decrypting / re-encrypting the
    block, computing Ring ORAM metadata (remapping, permutation updates), and
    the coordination overhead the paper attributes to multilevel
    serializability tracking when running in parallel mode.
    """

    crypto_per_block_ms: float = 0.0004
    metadata_per_block_ms: float = 0.0002
    coordination_per_block_ms: float = 0.0012
    dependency_tracking_per_op_ms: float = 0.0004
    mac_per_block_ms: float = 0.0001
    #: Concurrency-control CPU charged per MVTSO operation at the *trusted*
    #: proxy tier.  The default is 0.0 — the seed proxy never charged
    #: explicit CC CPU and every recorded timing depends on that — so
    #: proxy-CPU-bound experiments opt in by raising it.  One proxy worker
    #: pays this serially for its version-chain reads/inserts (its commit
    #: check stays unpriced); N > 1 workers (``repro.proxytier``) divide
    #: the same reads/inserts across lanes but additionally price their
    #: epoch-barrier votes at this rate — the genuine extra cost of running
    #: commit as a cross-worker protocol.
    cc_op_ms: float = 0.0

    def sequential_block_cost_ms(self, encrypted: bool = True) -> float:
        """CPU cost of handling one physical block in sequential mode."""
        cost = self.metadata_per_block_ms
        if encrypted:
            cost += self.crypto_per_block_ms
        return cost


#: The four storage backends used throughout Section 11.
#:
#: ``dispatch_ms_per_request`` models the serial cost the proxy pays per
#: physical request it puts on the wire (serialisation, framing, socket
#: writes); it is what ultimately caps the parallel speedup on remote
#: backends, matching the paper's observation that throughput is limited by
#: dependencies and request handling at the top of the tree rather than by
#: the raw round-trip time.  ``max_parallel_requests`` caps in-flight
#: requests; DynamoDB's blocking HTTP client caps out early (Figure 10b).
BACKENDS: Dict[str, LatencyModel] = {
    "dummy": LatencyModel(
        name="dummy",
        read_rtt_ms=0.0,
        write_rtt_ms=0.0,
        max_parallel_requests=1024,
        per_request_server_ms=0.0,
        dispatch_ms_per_request=0.0,
    ),
    "server": LatencyModel(
        name="server",
        read_rtt_ms=0.3,
        write_rtt_ms=0.3,
        max_parallel_requests=1024,
        per_request_server_ms=0.002,
        dispatch_ms_per_request=0.005,
    ),
    "server_wan": LatencyModel(
        name="server_wan",
        read_rtt_ms=10.0,
        write_rtt_ms=10.0,
        max_parallel_requests=1024,
        per_request_server_ms=0.002,
        dispatch_ms_per_request=0.006,
    ),
    "dynamo": LatencyModel(
        name="dynamo",
        read_rtt_ms=1.0,
        write_rtt_ms=3.0,
        max_parallel_requests=64,
        per_request_server_ms=0.0125,
        dispatch_ms_per_request=0.02,
    ),
}


def get_latency_model(name_or_model) -> LatencyModel:
    """Resolve a backend name (or pass through a model) to a LatencyModel.

    Raises ``KeyError`` listing the valid names when the name is unknown, so
    misconfigured experiments fail loudly.
    """
    if isinstance(name_or_model, LatencyModel):
        return name_or_model
    try:
        return BACKENDS[name_or_model]
    except KeyError:
        valid = ", ".join(sorted(BACKENDS))
        raise KeyError(f"unknown storage backend {name_or_model!r}; valid: {valid}") from None


@dataclass
class NetworkConditions:
    """Mutable overlay on a latency model, used for WAN experiments.

    The end-to-end experiments (Figure 9) run the same applications in a LAN
    setting (0.3 ms proxy-to-storage ping) and a WAN setting (10 ms).  Rather
    than duplicating every backend, experiments wrap a base model with extra
    one-way delay.
    """

    base: LatencyModel
    extra_rtt_ms: float = 0.0
    name_suffix: str = ""
    _cached: Optional[LatencyModel] = field(default=None, repr=False)

    def resolve(self) -> LatencyModel:
        """Materialise the overlay as a concrete LatencyModel."""
        if self._cached is None:
            self._cached = LatencyModel(
                name=self.base.name + self.name_suffix,
                read_rtt_ms=self.base.read_rtt_ms + self.extra_rtt_ms,
                write_rtt_ms=self.base.write_rtt_ms + self.extra_rtt_ms,
                max_parallel_requests=self.base.max_parallel_requests,
                per_request_server_ms=self.base.per_request_server_ms,
                dispatch_ms_per_request=self.base.dispatch_ms_per_request,
            )
        return self._cached


def link_latency_models(base, num_links: int,
                        link_extra_rtt_ms=()) -> "list[LatencyModel]":
    """Resolve one :class:`LatencyModel` per proxy-to-server link.

    A multi-server storage tier (:mod:`repro.storage.cluster`) gives every
    server its own link.  ``base`` is a backend name or model shared by all
    of them; ``link_extra_rtt_ms[i]`` (when provided) adds per-link
    round-trip time to link ``i`` via :class:`NetworkConditions` — links
    beyond the end of the sequence get no extra delay.
    """
    base_model = get_latency_model(base)
    models = []
    for index in range(num_links):
        extra = link_extra_rtt_ms[index] if index < len(link_extra_rtt_ms) else 0.0
        if extra:
            models.append(NetworkConditions(base=base_model, extra_rtt_ms=extra,
                                            name_suffix=f"_s{index}").resolve())
        else:
            models.append(base_model)
    return models
