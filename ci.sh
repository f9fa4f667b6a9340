#!/bin/sh
# CI gate for the CSCNN reproduction. Mirrors the verify ritual described
# in README.md: format check (when rustfmt is installed), the workspace
# invariant linter (docs/static_analysis.md), release build, test suite,
# and a warning-free rustdoc build. Fails fast on the first broken stage.
set -eu

cd "$(dirname "$0")"

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check"
    cargo fmt --all --check
else
    echo "== cargo fmt not installed; skipping format check"
fi

echo "== cscnn-lint"
cargo run -q -p cscnn-lint -- --format json

echo "== cargo build --release"
cargo build --workspace --release
# The harness = false bench targets are built by neither the line above
# nor `cargo test`; build them so an API change cannot break them unseen.
cargo build --workspace --release --benches

echo "== cargo test"
cargo test --workspace -q

echo "== paper harness stdout against committed snapshots"
# Simulated results must stay bit-identical: each harness's stdout at the
# fixed seed is committed under crates/bench/snapshots/. A declared fidelity
# fix re-records them in the same change:
#   cargo run -q --release -p cscnn-bench --bin figN > crates/bench/snapshots/figN.txt
for fig in fig7 fig8 fig9 fig10 fig11; do
    echo "-- $fig"
    cargo run -q --release -p cscnn-bench --bin "$fig" > "target/snapshot_$fig.txt"
    diff -u "crates/bench/snapshots/$fig.txt" "target/snapshot_$fig.txt"
done

echo "== property suites across fixed seeds"
for seed in 1 17 4242; do
    echo "-- CSCNN_PROP_SEED=$seed"
    CSCNN_PROP_SEED="$seed" cargo test -q -p cscnn \
        --test property_ir_topology \
        --test property_simulator \
        --test property_invariants \
        --test property_kernels
done

echo "== kernel determinism across thread counts"
for threads in 1 4; do
    echo "-- CSCNN_NUM_THREADS=$threads"
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn \
        --test property_kernels
done

echo "== simulator job pool across worker counts"
# run_suite sizes its pool from CSCNN_NUM_THREADS: 1 runs every group
# serially, 4 exceeds the groups of the small suites the tests run.
for threads in 1 4; do
    echo "-- CSCNN_NUM_THREADS=$threads"
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn-sim
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn --test integration_batch
done

echo "== kernels bench smoke run (schema check)"
cargo run -q --release -p cscnn-bench --bin kernels -- --smoke

echo "== simulator bench smoke run (schema and baseline merge check)"
cargo run -q --release -p cscnn-bench --bin sim_perf -- --smoke
cargo run -q --release -p cscnn-bench --bin sim_perf -- --smoke --label rerun \
    --baseline target/BENCH_sim_smoke.json

echo "== benchmark package: build and tests"
# benchmark/ is its own workspace; its tests re-drive the simulator's layer
# loop and compare it bit for bit with Runner::run_model and run_batch.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== ci.sh: all stages passed"
