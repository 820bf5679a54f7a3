"""Property-based test: the adversary's trace cannot see storage-call boundaries.

The epoch executor sends the slot reads of one announced batch to the store
in as many ``read_batch`` calls as it finds convenient — since the hold-back
of unopened reads, far fewer than one per path read.  That is invisible only
if :meth:`AccessTrace.record_batch <repro.storage.trace.AccessTrace.record_batch>`
is exactly ``n x record``: however one request sequence (one op, one
timestamp, one batch id — what the rows of an announced batch share) is cut
into recorded blocks, every view of the trace must be the same.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.obliviousness import split_partition_key
from repro.storage.backend import StorageOp
from repro.storage.trace import AccessTrace

PREFIXES = ["", "p0/", "p1/", "p10/"]

requests = st.lists(
    st.tuples(st.sampled_from(PREFIXES), st.integers(0, 5), st.integers(0, 3),
              st.sampled_from([0, 64, 136])),
    max_size=30).map(lambda rows: [(f"{prefix}oram/{bucket}/v1/s/{slot}", size)
                                   for prefix, bucket, slot, size in rows])


def recorded(blocks, time_ms, batch_id):
    trace = AccessTrace()
    for block in blocks:
        trace.record_batch(StorageOp.READ, [key for key, _ in block],
                           [size for _, size in block], time_ms, batch_id)
    return trace


def views(trace):
    """Everything the analysis reads off a trace."""
    parts = trace.split(split_partition_key)
    return (trace.events, len(trace), trace.keys_accessed(), trace.total_bytes(),
            list(parts), [part.events for part in parts.values()],
            [trace.filter_prefix(prefix, strip=strip).events
             for prefix in PREFIXES[1:] for strip in (True, False)])


@given(rows=requests, cuts=st.sets(st.integers(0, 30)),
       time_ms=st.floats(0, 1e6), batch_id=st.integers(-1, 5))
def test_recorded_block_boundaries_do_not_show(rows, cuts, time_ms, batch_id):
    bounds = [0] + sorted(cut for cut in cuts if cut <= len(rows)) + [len(rows)]
    blocks = [rows[start:end] for start, end in zip(bounds, bounds[1:])]

    by_row = AccessTrace()
    for key, size in rows:
        by_row.record(StorageOp.READ, key, size, time_ms, batch_id)

    expected = views(by_row)
    assert views(recorded([rows], time_ms, batch_id)) == expected
    assert views(recorded(blocks, time_ms, batch_id)) == expected
