#!/usr/bin/env bash
# Offline-friendly CI gate: formatting, lints, build, tests.
#
# Usage: ci/check.sh [--quick]
#   --quick   skip the test suite (format + lint + build only)
#
# Everything runs with --offline so the gate works in sandboxes without
# registry access (all third-party deps are vendored in vendor/).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --offline --workspace --release

# The doc gate spans every workspace member, including fsi-service,
# which additionally compiles under #![deny(missing_docs)]: an
# undocumented public item in the service API fails this step.
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

if [[ $quick -eq 0 ]]; then
  echo "== cargo test =="
  cargo test --offline --workspace -q

  echo "== cargo test --doc =="
  cargo test --offline --workspace --doc -q

  echo "== cargo test --features fault-inject =="
  cargo test --offline --workspace -q --features fault-inject

  # Metrics-enabled lane: the always-on registry and flight recorder are
  # exercised with stage tracing live and a real dump directory, so the
  # span→flight wiring and incident-dump file path run inside the test
  # suite instead of only in production incidents.
  echo "== cargo test (metrics lane: FSI_TRACE=stages + flight dir) =="
  FLIGHT_DIR="$(mktemp -d)"
  FSI_TRACE=stages FSI_FLIGHT_DIR="$FLIGHT_DIR" \
    cargo test --offline -q -p fsi-runtime -p fsi-dqmc
  rm -rf "$FLIGHT_DIR"

  # Kernel-equivalence lane with the dispatch forced to the scalar tier
  # (FSI_KERNEL is read once per process, so the forced choice covers the
  # whole run): the batched/blocked/chain paths and all tier-parity
  # proptests must hold when every consumer rides the portable kernel —
  # this is the lane that would catch a vector-tier result leaking into a
  # scalar-pinned run, and it keeps the suite meaningful on hosts without
  # AVX.
  echo "== cargo test (kernel lane: FSI_KERNEL=scalar) =="
  FSI_KERNEL=scalar cargo test --offline -q -p fsi-dense

  # Kill-point lane: the durability property tests under simulated
  # crashes — journal-append kill, drain/recover, torn-envelope
  # rejection — must hold in isolation (the killpoint plan is global
  # state, serialized by its test lock; single-test-binary scope keeps
  # the lane's failure output attributable).
  echo "== cargo test (kill-point lane: prop_recovery + fault-inject) =="
  cargo test --offline -q --test prop_recovery --features fault-inject

  # The checked profile keeps release optimization but turns debug
  # assertions and overflow checks back on — numeric guardrail bugs that
  # only trip under assertions surface here.
  echo "== cargo test --profile checked (fault-inject) =="
  cargo test --offline --workspace -q --profile checked --features fault-inject

  # perfbench is a Cargo workspace of its own, so the workspace lanes
  # above never build it — yet it calls fsi_measurement_set and
  # wrap::wrap_flops. Its own tests keep that API contract compiled and
  # exercised.
  echo "== cargo test (perfbench workspace) =="
  cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

  # Non-gating: record kernel throughput (results/BENCH_kernels.json is
  # informational; timing noise must never fail the gate).
  echo "== bench smoke (non-gating) =="
  ci/bench_smoke.sh --out=/tmp/BENCH_kernels_ci.json || \
    echo "bench smoke failed (non-gating), continuing"
fi

echo "== all checks passed =="
