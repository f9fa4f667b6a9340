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

echo "== cargo test"
cargo test --workspace -q

echo "== paper harness stdout against committed snapshots"
# Simulated results must stay bit-identical: each harness's stdout at the
# fixed seed is committed under crates/bench/snapshots/. A declared fidelity
# fix re-records them in the same change:
#   cargo run -q --release -p cscnn-bench --bin figN > crates/bench/snapshots/figN.txt
for fig in fig7 fig8 fig9 fig10 fig11 sweep table3 table4 table5 formats; do
    echo "-- $fig"
    cargo run -q --release -p cscnn-bench --bin "$fig" > "target/snapshot_$fig.txt"
    diff -u "crates/bench/snapshots/$fig.txt" "target/snapshot_$fig.txt"
done
# The CLI's simulate table, at its defaults and with an ArchConfig override
# (baselines keep their own sizing but still print a row).
echo "-- cscnn simulate alexnet"
cargo run -q --release -p cscnn --bin cscnn -- simulate alexnet \
    > target/snapshot_cscnn_simulate_alexnet.txt
diff -u crates/bench/snapshots/cscnn_simulate_alexnet.txt \
    target/snapshot_cscnn_simulate_alexnet.txt
echo "-- cscnn simulate lenet5 --config"
cargo run -q --release -p cscnn --bin cscnn -- simulate lenet5 \
    --config crates/bench/snapshots/arch_config_4x4.json \
    > target/snapshot_cscnn_simulate_lenet5_config.txt 2>/dev/null
diff -u crates/bench/snapshots/cscnn_simulate_lenet5_config.txt \
    target/snapshot_cscnn_simulate_lenet5_config.txt
# The training harnesses print what networks trained on the blocked
# kernels reach, so their stdout pins the kernels' bit-identity beyond
# mobile_cnn's golden weights.
echo "-- table2 --train"
cargo run -q --release -p cscnn-bench --bin table2 -- --train \
    > target/snapshot_table2_train.txt
diff -u crates/bench/snapshots/table2_train.txt target/snapshot_table2_train.txt
for harness in filter_shapes storage; do
    echo "-- $harness"
    cargo run -q --release -p cscnn-bench --bin "$harness" > "target/snapshot_$harness.txt"
    diff -u "crates/bench/snapshots/$harness.txt" "target/snapshot_$harness.txt"
done
# The measured-density example trains ConvNet-S, measures its densities
# and simulates them, so its stdout pins both halves of the loop.
echo "-- trained_to_hardware example"
cargo run -q --release -p cscnn --example trained_to_hardware \
    > target/snapshot_trained_to_hardware.txt
diff -u crates/bench/snapshots/trained_to_hardware.txt \
    target/snapshot_trained_to_hardware.txt

echo "== property suites across fixed seeds"
for seed in 1 17 4242; do
    echo "-- CSCNN_PROP_SEED=$seed"
    CSCNN_PROP_SEED="$seed" cargo test -q -p cscnn \
        --test property_ir_topology \
        --test property_simulator \
        --test property_invariants \
        --test property_kernels
done

echo "== training jobs across thread budgets"
# filter_shapes and storage run their independent trainings as jobs on
# CSCNN_NUM_THREADS threads; their stdout must not depend on how many.
for threads in 1 3; do
    for harness in filter_shapes storage; do
        echo "-- CSCNN_NUM_THREADS=$threads $harness"
        CSCNN_NUM_THREADS="$threads" cargo run -q --release -p cscnn-bench --bin "$harness" \
            > "target/snapshot_${harness}_$threads.txt"
        diff -u "crates/bench/snapshots/$harness.txt" "target/snapshot_${harness}_$threads.txt"
    done
done

echo "== simulator job pool across worker counts"
# run_suite sizes its pool from CSCNN_NUM_THREADS: 1 runs every group
# serially, 4 exceeds the groups of the small suites the tests run.
for threads in 1 4; do
    echo "-- CSCNN_NUM_THREADS=$threads"
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn-sim
    CSCNN_NUM_THREADS="$threads" cargo test -q -p cscnn --test integration_batch
done

echo "== kernels bench smoke run (schema and baseline merge check)"
cargo run -q --release -p cscnn-bench --bin kernels -- --smoke
cargo run -q --release -p cscnn-bench --bin kernels -- --smoke --label rerun \
    --baseline target/BENCH_kernels_smoke.json

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
