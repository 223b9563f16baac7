#!/usr/bin/env bash
# Bench regression sentinel: re-run the deterministic benches (instruction
# counts only -- no timing noise) into a scratch directory and compare the
# emitted BENCH_*.json against the committed baselines in bench/baselines/.
#
# Usage: run_bench_regression.sh [build-dir] [source-dir]
# Registered as the `bench_regression` ctest (label: bench-regression).
set -euo pipefail

BUILD_DIR="${1:-build}"
SOURCE_DIR="${2:-.}"

for bin in bench/bench_table1 bench/bench_fig2 bench/bench_fig3 bench/bench_fig4 \
           bench/bench_replay tools/lwmpi; do
  if [[ ! -x "${BUILD_DIR}/${bin}" ]]; then
    echo "run_bench_regression: ${BUILD_DIR}/${bin} not built" >&2
    exit 2
  fi
done

scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT

LWMPI_BENCH_DIR="${scratch}" "${BUILD_DIR}/bench/bench_table1" > /dev/null
LWMPI_BENCH_DIR="${scratch}" "${BUILD_DIR}/bench/bench_fig2" > /dev/null

# Per-backend rate figures (mailbox + rdma). Their msg/s entries are
# report-only in `lwmpi check`; what the sentinel guards is the artifact schema
# (every stack variant present, per backend) and the table1/fig2 bit-exactness.
LWMPI_BENCH_DIR="${scratch}" "${BUILD_DIR}/bench/bench_fig3" > /dev/null
LWMPI_BENCH_DIR="${scratch}" "${BUILD_DIR}/bench/bench_fig4" > /dev/null

# The observability overhead gates (bench_obs_overhead and the artifacts it
# lints) are timing gates: they run only in scripts/run_tier1.sh, after ctest,
# so a sanitizer build of this sentinel never times anything.

# Trace replay of the committed bundles: the bench's exit code enforces
# engine-exact fidelity on every bundle x netmod cell, and the artifact it
# writes must pass the replay schema check.
LWMPI_BENCH_DIR="${scratch}" "${BUILD_DIR}/bench/bench_replay" \
  "${SOURCE_DIR}/bench/traces" > /dev/null
"${BUILD_DIR}/tools/lwmpi" check --replaycheck "${scratch}/BENCH_replay.json"

exec "${BUILD_DIR}/tools/lwmpi" check "${SOURCE_DIR}/bench/baselines" "${scratch}" \
  table1 fig2 fig3_mailbox fig3_rdma fig4_mailbox fig4_rdma
