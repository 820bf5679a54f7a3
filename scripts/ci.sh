#!/usr/bin/env bash
# CI entry point: the tier-1 test suite plus a quick end-to-end benchmark
# smoke, so regressions in either the unit layer or the figure pipeline
# fail fast.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Docs gate: the README/ARCHITECTURE doctest snippets must execute, every
# exported repro.api / repro.core / repro.sharding / repro.proxytier /
# repro.audit / repro.concurrency / repro.elasticity / repro.storage /
# repro.oram / repro.recovery / repro.harness / repro.analysis symbol must
# carry a docstring, and every dotted repro.x.y name in README.md, docs/*.md
# and the src/repro docstrings must resolve.
echo "== docs gate: doctests + exported-symbol docstrings + dotted names =="
python -m doctest docs/ARCHITECTURE.md README.md
python scripts/check_docstrings.py

# Docs budget: README and ARCHITECTURE describe the system at HEAD, not how
# it got there (ROADMAP item 17 cut them from 525 and 1401 lines); each
# change's record lives in CHANGES.md.
echo "== docs budget: README.md at most 250 lines, docs/ARCHITECTURE.md at most 800 =="
readme_lines=$(wc -l < README.md)
architecture_lines=$(wc -l < docs/ARCHITECTURE.md)
echo "README.md $readme_lines lines, docs/ARCHITECTURE.md $architecture_lines lines"
if [ "$readme_lines" -gt 250 ] || [ "$architecture_lines" -gt 800 ]; then
    echo "README.md is over 250 lines or docs/ARCHITECTURE.md over 800" >&2
    exit 1
fi

# One representation, pure Python: the numpy twin of the path math was
# measured against the plain-int forms and lost (ARCHITECTURE "Performance").
# (An ``if``, not ``! grep``: ``set -e`` ignores a status inverted with ``!``.)
echo "== tripwire: no numpy under src/ =="
if grep -rn --include='*.py' "import numpy" src/; then
    echo "numpy is imported under src/" >&2
    exit 1
fi

# Bulk randomness is OpenSSL's user-space CSPRNG (ssl.RAND_bytes): nonces
# and dummy slots drawn with a getrandom syscall per bucket cost about a
# tenth of tpcc_durable's host time.  os.urandom makes the 32-byte
# long-lived keys and nothing else.
echo "== tripwire: every urandom( under src/ draws a 32-byte key =="
if grep -rn --include='*.py' "urandom(" src/ | grep -v "urandom(32)"; then
    echo "urandom( under src/ draws something other than a 32-byte key" >&2
    exit 1
fi

# One reader of the program protocol: the proxy and both baselines step a
# transaction program through repro.core.client.ProgramRun, so nothing else
# under src/ resumes a generator.
echo "== tripwire: only ProgramRun resumes a transaction program =="
if grep -rn --include='*.py' "\.send(" src/ | grep -v "^src/repro/core/client\.py:"; then
    echo "a file under src/ other than src/repro/core/client.py calls .send(" >&2
    exit 1
fi

# One checkpoint encoding: the position map, the bucket metadata and the
# stash checkpoint as fixed-width little-endian records, encoded and decoded
# by the classes that own them, so no JSON encoding may sit beside them.
echo "== tripwire: no json in the ORAM checkpoint encoders =="
if grep -nE "^\s*(import|from)\s.*\bjson\b" src/repro/oram/metadata.py \
        src/repro/oram/position_map.py src/repro/oram/stash.py; then
    echo "json is imported by an ORAM checkpoint encoder" >&2
    exit 1
fi

# The storage tier keeps bytes and no time: every simulated millisecond is
# charged by the proxy's cost model, so no storage module may reach for a
# latency model or a switch that lets a server charge its own.
echo "== tripwire: no latency model under src/repro/storage/ =="
if grep -rnE --include='*.py' "^\s*(from|import) repro\.sim\.latency|charge_latency" src/repro/storage/; then
    echo "the storage tier imports repro.sim.latency or mentions charge_latency" >&2
    exit 1
fi

# One configuration type: ObladiConfig and its with_* builders.  EngineConfig
# is the same class under the name repro.api exports; nothing converts one
# config into another, and the partition map has no seed knob.
echo "== tripwire: one configuration type =="
if grep -rnE "to_obladi_config|for_workload\(|class EngineConfig" \
        src/ tests/ benchmarks/ examples/ docs/ README.md \
        || grep -rn "partition_seed" src/; then
    echo "a second configuration type, a conversion or partition_seed is back" >&2
    exit 1
fi

# One class per baseline: NoPrivEngine and MySQLEngine are engines on the one
# wave loop of BaselineEngine, with no wrapper or executor beside them, and
# the 2PL lock manager has the exclusive lock and nothing else.
echo "== tripwire: one class per baseline =="
if grep -rnIE "NoPrivProxy|TwoPhaseLockingStore|WaveExecutor|_BaselineEngine|run_transactions|LockMode|find_any_cycle" \
        src/ tests/ benchmarks/ examples/ docs/ README.md; then
    echo "a baseline wrapper, wave executor, lock mode or global cycle search is back" >&2
    exit 1
fi

# One ledger: an epoch's results and committed history enter the engine's
# ledger together, so no epoch summary or per-proxy history sits beside it.
echo "== tripwire: one ledger =="
if grep -rnIE "EpochSummary|epoch_summaries|_summary_extras|_retired_history|repro\.core\.epoch" \
        src/ tests/ benchmarks/ examples/ docs/ README.md; then
    echo "an epoch summary or a second committed history is back" >&2
    exit 1
fi

# One lane primitive: independent durations (partition batches on the fan-out
# lanes, CC operations on the proxy's lanes) are timed by
# repro.sim.scheduler.LaneStats.charge alone, and the single proxy is the
# one-lane case of the CC charge and the epoch barrier.
echo "== tripwire: one lane primitive =="
if grep -rnIE "FanoutStats|CcLaneStats|_prepare_repaired|lane_ms" \
        src/ tests/ benchmarks/ docs/ README.md \
        || grep -rn --include='*.py' "heapreplace" src/ | grep -v "^src/repro/sim/scheduler\.py:"; then
    echo "a second lane schedule, its stats record or a proxy-tier barrier hook is back" >&2
    exit 1
fi

# Only what production runs stays in src/: the helpers only tests called were
# deleted, and their tests inline what they checked.  scripts/reach.py finds
# the next ones; it takes minutes under the profiler, so each re-anchor runs
# it and this step only keeps the deleted names from coming back.
echo "== tripwire: test-only API stays deleted =="
if grep -rnIwE "merge_traces|keys_accessed|clear_traces|eviction_count_for_bucket|deepest_common_level|bucket_on_path|epoch_read_capacity|epoch_length_ms|server_for_partition|slot_of_block|valid_real_block_ids|p95_latency_ms|transaction_factories|pending_bucket_writes|write_batch_padding|assert_ok" \
        src/ tests/ benchmarks/ examples/ docs/ README.md; then
    echo "an API only tests called is back" >&2
    exit 1
fi

# One key per slot version: a tree builds each bucket version's slot keys
# once, its namespace included, and hands them to its host server itself
# (no prefixing view rebuilds every batch); and the executor caches no read,
# since Ring ORAM reads a slot at most once per version.
echo "== tripwire: one key per slot version =="
if grep -rn --include='*.py' "NamespacedStorage(" src/repro | grep -v "^src/repro/storage/namespace\.py:" \
        || grep -rn --include='*.py' "_read_cache" src/; then
    echo "a prefixing storage view is back on the data path, or a slot read cache is" >&2
    exit 1
fi

# One data layer: the paper's single tree is PartitionedDataLayer with one
# partition.  SingleOramDataLayer stays an empty subclass only because
# bench/trace.py imports it by name; nothing builds it, and neither an
# abstract data-layer base nor a refusal of one shard comes back.
echo "== tripwire: one data layer =="
if grep -rnI "SingleOramDataLayer(" src/ tests/ benchmarks/ examples/ \
        | grep -v "class SingleOramDataLayer(PartitionedDataLayer):" \
        || grep -rnIE "class DataLayer\b|needs at least two shards" \
        src/ tests/ benchmarks/ examples/; then
    echo "a second data-layer path is back: SingleOramDataLayer is built, or the DataLayer base or the shards=1 refusal returned" >&2
    exit 1
fi

# One proxy: ObladiProxy owns config.proxy_workers CC lanes at every count and
# MVTSOManager is the only MVTSO manager.  ProxyCoordinator and
# ShardedMVTSOManager stay empty subclasses only because bench/trace.py
# imports them by name; nothing builds them, and no factory picks a proxy
# class or wraps the data layer's constructor.
echo "== tripwire: one proxy =="
if grep -rnIE "ProxyCoordinator\(|ShardedMVTSOManager\(" src/ tests/ benchmarks/ examples/ docs/ README.md \
        | grep -vE "class ProxyCoordinator\(ObladiProxy\):|class ShardedMVTSOManager\(MVTSOManager\):" \
        || grep -rnIE "build_proxy|build_data_layer" src/ tests/ benchmarks/ examples/ docs/ README.md; then
    echo "a second proxy path is back: a proxy shim is built, or build_proxy / build_data_layer returned" >&2
    exit 1
fi

# Smoke first: an end-to-end regression across the three engines surfaces
# in seconds, before the multi-minute figure regenerations start.
echo "== smoke: Figure 9 end-to-end across all three engines =="
python -m pytest -q benchmarks/test_fig9_end_to_end.py -k smoke

echo "== smoke: conflict repair keeps histories serializable =="
python -m pytest -q benchmarks/test_repair_contention.py -k smoke

# Sealed vs written: only real slots, WAL records and checkpoints go through
# the keystream; a bucket's dummy slots are stored as random bytes.  The
# step fails unless the sealed slots are under half the slots written
# (about 262 against 1667 a transaction here; 2979 when every dummy was
# sealed).
# Scheduled batches: benchmark traffic is timed from bucket counts alone
# (repro.oram.dependency); a list-scheduled batch here means it has left
# the decided-without-scheduling regime, and the step fails.
# Storage read calls: the executor holds back the slot reads it does not
# open, so the store is called once per opened plan, not once per path read
# (262 calls against 144 path reads x 16 transactions here; 2299 before the
# hold-back).  The step fails unless the calls are under half the path reads.
# Stored bytes: once an epoch commits, the bucket versions it superseded and
# the checkpoint chain a full checkpoint replaced are deleted.  The step
# fails unless the servers hold under 150 bytes per loaded user byte (about
# 117 here, 130 when checkpoints were JSON; 168 when every version and chain
# was kept).
echo "== perf: sealed vs written slots, scheduled batches, storage read calls, stored bytes (repo benchmark, traced smoke) =="
traced_smoke=$(python bench/run.py --workload tpcc_durable --smoke --seed 17 --seconds 1 --trace 1)
grep -E "^metric (crypto\.sealed_slots_per_txn|storage\.slots_written_per_txn|storage\.trace_events_per_txn|storage\.stored_bytes_per_user_byte|sim\.schedule_calls|sim\.schedule_ms_per_txn|oram\.self_ms_per_txn|oram\.eviction_ms_per_txn|recovery\.checkpoint_ms_per_txn|storage\.read_batch_calls|oram\.path_reads_per_txn|crypto\.open_ms_per_txn) " <<<"$traced_smoke"
grep -qE "^metric sim\.schedule_calls 0 " <<<"$traced_smoke" \
    || { echo "sim.schedule_calls is not 0 on tpcc_durable" >&2; exit 1; }
sealed=$(awk '$1 == "metric" && $2 == "crypto.sealed_slots_per_txn" { print $3 }' <<<"$traced_smoke")
written=$(awk '$1 == "metric" && $2 == "storage.slots_written_per_txn" { print $3 }' <<<"$traced_smoke")
real_only=$(awk -v sealed="$sealed" -v written="$written" \
    'BEGIN { print (sealed != "" && written != "" && 2 * sealed < written) ? "yes" : "no" }')
if [ "$real_only" != yes ]; then
    echo "crypto.sealed_slots_per_txn ($sealed) is not under half of storage.slots_written_per_txn ($written) on tpcc_durable" >&2
    exit 1
fi
read_calls=$(awk '$1 == "metric" && $2 == "storage.read_batch_calls" { print $3 }' <<<"$traced_smoke")
path_reads=$(awk '$1 == "metric" && $2 == "oram.path_reads_per_txn" { print $3 }' <<<"$traced_smoke")
committed=$(sed -nE 's/^round [0-9]+ traced .* committed=([0-9]+)\/.*/\1/p' <<<"$traced_smoke" | head -n 1)
echo "storage.read_batch_calls $read_calls against $path_reads path reads/txn x $committed committed"
held_back=$(awk -v calls="$read_calls" -v reads="$path_reads" -v txns="$committed" \
    'BEGIN { print (calls != "" && 2 * calls < reads * txns) ? "yes" : "no" }')
if [ "$held_back" != yes ]; then
    echo "storage.read_batch_calls is not under half the path reads on tpcc_durable" >&2
    exit 1
fi
stored=$(awk '$1 == "metric" && $2 == "storage.stored_bytes_per_user_byte" { print $3 }' <<<"$traced_smoke")
collected=$(awk -v stored="$stored" 'BEGIN { print (stored != "" && stored < 150) ? "yes" : "no" }')
if [ "$collected" != yes ]; then
    echo "storage.stored_bytes_per_user_byte ($stored) is not under 150 on tpcc_durable" >&2
    exit 1
fi

# Full-size drift gate: one untraced round of each repo-benchmark workload at
# seed 17 must print the sim_digest ROADMAP records (about 12 s for all four).
# A refactor or a host-cost change must not move a simulated number.
# Peak RSS: the adversary trace keeps its keys in zlib segments and one size
# per uniform batch, so ycsb_hot_elastic peaks at about 56 MiB after a round,
# about 1.8 of it libssl (about 73 when every block held its keys as a plain
# string and its sizes as an array).  The step fails at 64 MiB or more.
echo "== drift gate: full-size seed-17 sim_digests, ycsb_hot_elastic peak RSS (repo benchmark) =="
for pinned in smallbank_sharded:54bd2030a4c348b5 tpcc_durable:cb3ca4dc03917e3c \
              freehealth_openloop:9b8e6f174055e11a ycsb_hot_elastic:182d60c47869690d; do
    workload=${pinned%%:*}
    expected=${pinned#*:}
    round=$(python bench/run.py --workload "$workload" --seed 17 --seconds 0 --trace 0)
    digest=$(awk '$1 == "sim_digest" { print $2 }' <<<"$round")
    echo "$workload sim_digest $digest"
    if [ "$digest" != "$expected" ]; then
        echo "$workload sim_digest $digest is not the recorded $expected" >&2
        exit 1
    fi
    if [ "$workload" = ycsb_hot_elastic ]; then
        rss=$(awk '$1 == "metric" && $2 == "peak_rss_mb" { print $3 }' <<<"$round")
        echo "$workload peak_rss_mb $rss"
        compact=$(awk -v rss="$rss" 'BEGIN { print (rss != "" && rss < 64) ? "yes" : "no" }')
        if [ "$compact" != yes ]; then
            echo "$workload peak_rss_mb ($rss) is not under 64 MiB" >&2
            exit 1
        fi
    fi
done

# Tier-1 holds the fixed-seed drift gates (the golden smoke sim_digests and
# adversary-trace hashes under tests/integration/) and, through the root
# conftest.py, fails if the run changed any file git does not ignore.
echo "== tier-1: unit, property, integration and benchmark suites =="
python -m pytest -x -q
