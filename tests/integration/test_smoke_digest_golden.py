"""Fixed-seed simulated results, pinned as golden digests.

``bench/run.py`` prints ``sim_digest``, a hash of ``repr(RunStats)``: every
simulated number of the run — commits, aborts, latencies, clock, physical
operations.  The ``--smoke`` size of each of the benchmark's four workloads
takes about a second, and between them they cross the partitioned fan-out,
the durable single tree with its crash and recovery, the open loop, and a
live reshard under repair and audit.  A change that moves a digest changed
the simulation: it says so and re-records the constant in its own PR.  (The
full-size seed-17 digests are in ROADMAP.md; ``bench/`` prints them.)
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

GOLDEN_SMOKE_DIGESTS = {
    "smallbank_sharded": "1f8ed560038ee2e7",
    "tpcc_durable": "c07674d031c18b90",
    "freehealth_openloop": "c691344ed80bd34a",
    "ycsb_hot_elastic": "89708953b5737688",
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_SMOKE_DIGESTS))
def test_smoke_sim_digest_is_the_recorded_one(workload):
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--smoke", "--seed", "17", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    digests = [line.split()[1] for line in done.stdout.splitlines()
               if line.startswith("sim_digest ")]
    assert digests == [GOLDEN_SMOKE_DIGESTS[workload]]
