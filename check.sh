#!/usr/bin/env bash
# Tier-1 verification gate for the EasyBO workspace.
#
# Run from the repository root before merging anything:
#
#   ./check.sh
#
# Passes iff the release build, the full test suite, every example,
# formatting, clippy and rustdoc (warnings denied) all pass. CI runs
# exactly this script.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> exact-bits suites of the GP and acquisition hot path, the refiner and gradient suites, the trajectory-digest pin and the fallback-draw pin under release arithmetic"
cargo test --release -q -p easybo-linalg -p easybo-gp -p easybo-persist -p easybo-opt -p easybo
cargo test --release -q -p easybo-integration --test incremental

echo "==> kill-and-resume suite under release arithmetic (restores replay the Cholesky factor)"
cargo test --release -q -p easybo-integration --test resume

echo "==> threaded run replays through the virtual executor under release timing"
cargo test --release -q -p easybo-integration --test fault_injection threaded_run_replays

echo "==> fault-injection chaos suite (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test fault_injection

echo "==> kill-and-resume chaos suite (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test resume

echo "==> algorithm-portfolio acceptance matrix (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test portfolio

echo "==> zero-alloc discipline of the disabled telemetry/span path"
cargo test -q -p easybo-integration --test telemetry_alloc

echo "==> introspection suite: span tracing, scrape endpoint, report gate (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test introspection

echo "==> service wire-protocol chaos suite (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test service

echo "==> scenario zoo acceptance suite (PROPTEST_CASES=64)"
PROPTEST_CASES=64 cargo test -q -p easybo-integration --test scenario

echo "==> every example once in release (their assertions are part of the gate)"
for example in examples/*.rs; do
    cargo run --release -q -p easybo-integration --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links must resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo bench --no-run (every bench must compile)"
cargo bench --workspace --no-run

echo "==> repository benchmark: builds against the public API and passes its own tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> all checks passed"
