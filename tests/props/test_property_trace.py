"""Property-based test: the adversary's trace cannot see storage-call boundaries.

The epoch executor sends the slot reads of one announced batch to the store
in as many ``read_batch`` calls as it finds convenient — since the hold-back
of unopened reads, far fewer than one per path read.  That is invisible only
if :meth:`AccessTrace.record_batch <repro.storage.trace.AccessTrace.record_batch>`
is exactly ``n x record``: however one request sequence (one op, one
timestamp, one batch id — what the rows of an announced batch share) is cut
into recorded blocks, every view of the trace must be the same.  Nor may the
trace's own cuts show: keys are closed into compressed segments every
``_SEGMENT_CHARS`` characters, so the views are checked with segments of one
block, of a few keys and of the default size.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import views as namespace_views
from repro.storage import trace as trace_module
from repro.storage.backend import StorageOp
from repro.storage.trace import AccessTrace

PREFIXES = ["", "p0/", "p1/", "p10/"]
SIZES = [0, 64, 136]
#: Key tails beyond ASCII: two-, three- and four-byte UTF-8, and none at all.
TAILS = ["", "é", "ключ", "鍵", "🔑"]

requests = st.lists(
    st.tuples(st.sampled_from(PREFIXES), st.integers(0, 5), st.integers(0, 3),
              st.sampled_from(TAILS), st.sampled_from(SIZES)),
    max_size=30).map(lambda rows: [(f"{prefix}oram/{bucket}/v1/s/{slot}{tail}", size)
                                   for prefix, bucket, slot, tail, size in rows])


def recorded(blocks, time_ms, batch_id):
    trace = AccessTrace()
    for block in blocks:
        trace.record_batch(StorageOp.READ, [key for key, _ in block],
                           [size for _, size in block], time_ms, batch_id)
    return trace


def views(trace):
    """Everything the analysis reads off a trace."""
    parts = namespace_views(SimpleNamespace(trace=trace))

    def under(prefix, cut):
        return trace.split(lambda key: (key.startswith(prefix),
                                        key[cut:] if key.startswith(prefix) else key))

    return (trace.events, len(trace), trace.total_bytes(),
            trace.ops_by_kind(), list(parts), [part.events for part in parts.values()],
            [part.events for prefix in PREFIXES[1:] for cut in (0, len(prefix))
             for part in under(prefix, cut).values()])


@pytest.mark.parametrize("segment_chars", [1, 17, trace_module._SEGMENT_CHARS])
@given(rows=requests, cuts=st.sets(st.integers(0, 30)),
       uniform=st.none() | st.sampled_from(SIZES),
       time_ms=st.floats(0, 1e6), batch_id=st.integers(-1, 5))
def test_recorded_block_boundaries_do_not_show(segment_chars, rows, cuts, uniform,
                                               time_ms, batch_id):
    if uniform is not None:           # every request moved the same bytes
        rows = [(key, uniform) for key, _ in rows]
    bounds = [0] + sorted(cut for cut in cuts if cut <= len(rows)) + [len(rows)]
    blocks = [rows[start:end] for start, end in zip(bounds, bounds[1:])]

    def by_row():
        trace = AccessTrace()
        for key, size in rows:
            trace.record(StorageOp.READ, key, size, time_ms, batch_id)
        return trace

    expected = views(by_row())
    with mock.patch.object(trace_module, "_SEGMENT_CHARS", segment_chars):
        assert views(by_row()) == expected
        assert views(recorded([rows], time_ms, batch_id)) == expected
        assert views(recorded(blocks, time_ms, batch_id)) == expected
