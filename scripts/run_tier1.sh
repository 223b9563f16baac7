#!/usr/bin/env bash
# Tier-1 gate: configure, build, run the full test suite (which includes the
# bench_regression sentinel comparing the deterministic bench artifacts
# against bench/baselines/).
#
# Usage: scripts/run_tier1.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# Observability overhead gates: the instrumented hot path must stay within 3%
# of the stripped one, and an attached aggregate profiler or flight recorder
# within 2% of none (timing bench -- runs after ctest so it gets a quiet
# machine; its own exit code is the acceptance check).
# Artifacts go to a scratch dir so the repo root stays clean; the emitted
# profile artifact must pass the profile-JSON schema check. The bench writes
# every artifact even when a gate fails, so its status is held until the
# deterministic checks below have run.
obs_scratch="$(mktemp -d)"
trap 'rm -rf "${obs_scratch}"' EXIT
obs_status=0
LWMPI_BENCH_DIR="${obs_scratch}" "${BUILD_DIR}/bench/bench_obs_overhead" || obs_status=$?
"${BUILD_DIR}/tools/lwmpi" check --profcheck "${obs_scratch}/profile.json"

# Trace replay: re-execute the committed bundles on both netmods (the bench's
# own exit code enforces engine-exact fidelity and zero timeouts), then
# validate the emitted BENCH_replay.json artifact schema.
LWMPI_BENCH_DIR="${obs_scratch}" "${BUILD_DIR}/bench/bench_replay" bench/traces
"${BUILD_DIR}/tools/lwmpi" check --replaycheck "${obs_scratch}/BENCH_replay.json"

# Causal-tier golden trace: the committed injected-delay timeline must still
# analyze to a late_sender-dominated critical path (format + analyzer drift
# guard; also covered by the ctest critpath_golden case, repeated here so the
# tier-1 log shows the actual Table-1-style report).
CRITPATH_OUT="$("${BUILD_DIR}/tools/lwmpi" critpath bench/baselines/causal_golden.jsonl)"
echo "${CRITPATH_OUT}"
grep -q "late_sender" <<<"${CRITPATH_OUT}"

if [[ "${obs_status}" -ne 0 ]]; then
  echo "run_tier1.sh: bench_obs_overhead failed (exit ${obs_status})" >&2
  exit "${obs_status}"
fi
