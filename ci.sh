#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), docs (warnings
# are errors), release build, the full workspace test suite, the GEMM
# arm-vs-arm parity tests by name (their log lines say which micro-kernel
# arms this host ran; the driver-level one, whose depths cross the KC
# reduction blocks, at two pool sizes), the first-touch NT gradient
# overwrite against the zero-fill path at two pool sizes and the
# ReLU-gate parity test, the buffer-reuse,
# determinism / allocation / thread-budget / GNN epoch-loop / early-stop
# lockstep / store-fault suites at two pool sizes, bulk ShaDow's pinned
# output hashes and its allocation probe at two pool sizes, a smoke run
# of the Figure 3 bin, a two-second run of each benchmark workload with a
# 1 GB peak-RSS tripwire, and a check that the frozen benchmark's
# tracked files did not change. Run from the repo root.
set -euo pipefail

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --workspace --release
cargo test -q --workspace --release

# GEMM micro-kernel arms against each other: every arm this CPU can run
# (AVX-512, AVX2, portable) on the tile (resuming a parked accumulator)
# and the NT rows (the wide ones fed Bᵀ, one row and a group of 11, n
# from 1 to 35 around the 16-output pass, accumulating and
# overwriting), bit for bit against naive references over ±0,
# subnormals, ±inf, NaN and an FMA tripwire. The test prints which arms
# ran, so this log records which arms a host checked. Then the five
# matmul drivers (NN overwrite and accumulate, TN, NT accumulate and
# overwrite) on every arm against naive references and the portable
# arm, over ragged shapes whose last tiles repeat a row, NT row counts
# with every remainder of an 8-row group, and depths on both sides of
# one and two KC blocks and past 3,000, at two pool sizes. Then the
# MatMul backward's first-touch overwrite of an empty input-gradient
# slot against zero-filling it and adding, bit for bit, with fanned-out
# nodes and -0.0 / NaN / ±inf upstream, at two pool sizes. Then the
# fused bias + ReLU backward's branch-free gate against the branchy
# rule, bit for bit, over y = 0 / y < 0 rows, -0.0 / NaN / ±inf upstream
# gradients and accumulators already holding -0.0.
cargo test -q --release -p trkx-tensor --lib gemm_arms_match_references_bit_for_bit -- --nocapture
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-tensor --lib gemm_drivers_match_portable_on_every_arm -- --nocapture
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --lib gemm_drivers_match_portable_on_every_arm -- --nocapture
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-tensor --lib fresh_gemm_gradient_slots_match_the_zero_fill_path_bit_for_bit
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --lib fresh_gemm_gradient_slots_match_the_zero_fill_path_bit_for_bit
cargo test -q --release -p trkx-tensor --lib add_bias_relu_gate_is_the_branchy_rule_bit_for_bit

# Tape buffers outlive the tape, at two pool sizes: a dropped pool's
# buffers serve the next pool's misses class by class and a foreign-
# capacity buffer never comes back (`reservoir`), and a second identical
# training call, single-rank and at p = 2, allocates at most a tenth of
# the first's bytes with the same loss bits (`pool_reuse`). Each is a
# binary of its own: the reservoir is process-wide.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-tensor --test reservoir
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --test reservoir
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-core --test pool_reuse
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-core --test pool_reuse

# Determinism suites at two pool sizes with every size gate forced off:
# the parallel kernels (message passing AND the blocked GEMM panels) are
# pinned to serial references bit for bit, so passing at both sizes
# proves thread-count invariance.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-tensor --test determinism
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --test determinism
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-tensor --test matmul_blocked
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --test matmul_blocked

# Zero-alloc steady state for the GEMM kernels (a TN product deeper
# than one KC block included) at a multi-thread pool size, and the rayon shim's own suite at two pool sizes: the pool
# executor (zero-alloc dispatch, with and without a held core) and the
# one thread budget (another thread's core narrows the split by one, a
# thread's own does not, never below 1, released on unwinding, always 1
# at pool size 1).
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --test alloc_probe
(cd shims/rayon && RAYON_NUM_THREADS=1 cargo test -q --release)
(cd shims/rayon && RAYON_NUM_THREADS=4 cargo test -q --release)

# The thread budget above the shim, at two pool sizes: DDP ranks as many
# as pool threads each see a split width of 1 and give their cores back,
# and served tracks equal `reconstruct`'s at 1, 2 and 4 workers (at pool
# 4, one worker's kernels split four ways and four workers' run
# serially).
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-ddp --test thread_budget
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-ddp --test thread_budget
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-serve --test batch_parity
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-serve --test batch_parity

# Allocation budgets above the kernels, parallel gates forced on: a full
# train step on a repeated shape (<= 69 allocs), stage-2 construction
# (<= 8 allocs per event), train steps whose shapes are each new to the
# pool (fresh bytes <= 20 % of the tape's activation bytes), and served
# events replayed in an order new to the pool (fresh bytes <= 12 %). The
# same bounds at both pool sizes are the flatness check.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-core --test alloc_probe
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-core --test alloc_probe

# DDP golden + determinism at two pool sizes: per-tensor and coalesced
# all-reduce train bit-identically (loss, validation and final
# parameters; the threaded trainer at P = 2 and 3, the simulator at
# P = 4), each epoch's modeled communication is its step count times the
# strategy's alpha-beta formula, and the DDP gradient-sync step stays
# allocation-free in steady state under both strategies. (That an
# epoch's total is its sampling, train and modeled communication seconds
# added up is held by `every_mode_reproduces_its_golden` in the
# workspace suite above.)
RAYON_NUM_THREADS=1 cargo test -q --release --test ddp_equivalence
RAYON_NUM_THREADS=4 cargo test -q --release --test ddp_equivalence
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-ddp --test alloc_probe

# Early stopping is the only hook that steers training, and a rank-local
# stop would desynchronise the collectives. So, at two pool sizes: both
# DDP ranks stop on the same epoch with the full run's curve prefix, and
# every hook sees every epoch's report once, in order, including the
# epoch on which early stopping says stop.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-core --test train_harness -- threaded_ddp_early_stops_in_lockstep hooks_fire_in_order
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-core --test train_harness -- threaded_ddp_early_stops_in_lockstep hooks_fire_in_order

# The GNN epoch loop goes chunk -> sample -> step, in lockstep across a
# thread's ranks. At two pool sizes: all four training modes reproduce
# their golden curves (and report sampling time), and with a batch below
# the world size (batch 2 at p = 3) every schedule entry is one step on
# every rank, the empty shard's included, threaded DDP and the simulator
# train the same run bit for bit, and full-graph training takes one step
# per usable graph.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-core --test train_harness -- every_mode_reproduces_its_golden every_schedule_entry_is_one_step_on_every_rank_below_the_world_size
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-core --test train_harness -- every_mode_reproduces_its_golden every_schedule_entry_is_one_step_on_every_rank_below_the_world_size

# A graph store fault ends training with a typed error, never a panic or
# a hang, and a rank-local stop would desynchronise the collectives. So,
# at two pool sizes: an injected EIO or short read ends single-rank
# training at p = 1, threaded DDP at p = 2 with the fault on
# rank 1's reads only, and the simulator at p = 4 with `Err`, each
# within a watchdog; a fault-injecting store that never fails trains
# bit-identically to the in-core golden; a sampler records the first
# fault once and reads empty rows after it; and `trkx train` /
# `trkx sample` turn a fault into one line naming the store.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-core --test train_harness -- store_fault
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-core --test train_harness -- store_fault
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-sampling --test sampler_trait -- a_store_fault
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-sampling --test sampler_trait -- a_store_fault
RAYON_NUM_THREADS=1 cargo test -q --release --bin trkx -- a_store_fault
RAYON_NUM_THREADS=4 cargo test -q --release --bin trkx -- a_store_fault

# Serve smoke gate: train a tiny bundle, start `trkx serve` on stdio,
# push a burst that includes one oversized event (which must shed with an
# explicit response), and require well-formed responses plus a clean
# drain-and-exit shutdown. The release-profile run of the same test is
# already in the workspace suite above; this re-runs it by name so a
# serving regression fails fast with its own line in the CI log.
cargo test -q --release --test serve_e2e

# Figure 3's bin at its smallest sizes (about 1 s on a 2-vCPU host):
# both arms train one simulated-DDP epoch at every process count (3 for
# CTD, 4 for Ex3) and append one row each to results/fig3.jsonl under
# the working directory, so it runs in a scratch directory and must
# leave 14 rows there.
root=$PWD
fig3_dir=$(mktemp -d)
(cd "$fig3_dir" && cargo run -q --release --manifest-path "$root/Cargo.toml" -p trkx-bench \
    --bin fig3_epoch_time -- --ctd-scale 0.0005 --ex3-scale 0.002 --graphs 2 --hidden 4 >/dev/null)
fig3_rows=$(wc -l <"$fig3_dir/results/fig3.jsonl")
rm -rf "$fig3_dir"
if [ "$fig3_rows" -ne 14 ]; then
    echo "ci: fig3_epoch_time wrote $fig3_rows rows, expected 14" >&2
    exit 1
fi

# Graph-construction engine gate, grid vs brute oracle: the grid engine
# must emit edge lists bit-identical to `radius_graph_brute`
# (property-pinned, including duplicate, colinear, and NaN clouds) at
# two pool sizes.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-graph --test proptests
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-graph --test proptests

# Out-of-core sharded store gates: both ShaDow samplers (sequential and
# bulk) must be bit-identical over the file-backed ShardedCsr vs in-core
# CSR across shard sizes and cache capacities, and every subgraph either
# samples, sharded or not, must be valid with one component per batch
# vertex (run at two pool sizes; at 4 threads bulk extraction of several
# minibatches reads one sharded view from several threads), and the
# sharded-vs-in-core training curve must match bit for bit. The fault
# count is a contract, checked as a count: a gather faults each shard it
# touches exactly once, and a bulk epoch faults each shard at most once
# per walk step plus once for extraction.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-sampling --test sharded_parity --test sampler_trait
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-sampling --test sharded_parity --test sampler_trait
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-sparse --lib gather_faults_each_touched_shard_once
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-sparse --lib gather_faults_each_touched_shard_once
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-sampling --test sharded_parity bulk_faults_each_shard_at_most_once_per_walk_step
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-sampling --test sharded_parity bulk_faults_each_shard_at_most_once_per_walk_step
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-core sharded_store_training_is_bit_identical_to_in_core
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-core sharded_store_training_is_bit_identical_to_in_core

# Bulk ShaDow's output is pinned: hashes of every output field on a
# ladder, a hub and a fixed-seed Ex3-like event, at four (depth, fanout)
# settings and k = 1 and 3 stacked minibatches, must equal constants
# recorded from the sampler as first written (the benchmark's own hash is
# computed by the code under test, so it cannot see a different draw).
# And a warm bulk call's allocations must not grow with the number of
# walks (256 vs 1,024 roots per batch). Both at two pool sizes: at 4 the
# minibatches are extracted in parallel.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-sampling --test bulk_pinned --test alloc_probe
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-sampling --test bulk_pinned --test alloc_probe

# Frozen benchmark package: tier-1 never builds `benchmark/`, so a
# public-API change that breaks it must fail here. Type-check it against
# the workspace crates and run its own unit tests (same build directory
# the benchmark driver uses).
CARGO_TARGET_DIR=.bench_build cargo check --release --offline --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# The six benchmark workloads, two seconds each: every operation's
# output is checked (bit-identical losses, sampled-subgraph hashes
# against in-core, served tracks against `reconstruct`) and a failed
# check exits 1. Timings are not gated here. A peak RSS above 1 GB on
# a two-second run fails: a leak tripwire (the largest needs ~0.2 GB).
for w in train_dense train_ddp2 sample_incore sample_oocore serve_open serve_closed; do
    out=$(CARGO_TARGET_DIR=.bench_build bash benchmark/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0) || {
        printf '%s\n' "$out"
        exit 1
    }
    printf '%s\n' "$out"
    rss=$(printf '%s\n' "$out" | tail -n 1 | sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p')
    if [ -z "$rss" ] || [ "$rss" -gt 1024 ]; then
        echo "ci: $w peak_rss_mb '$rss' is missing or above 1024" >&2
        exit 1
    fi
done

# The benchmark is frozen: building and running it must leave its
# tracked files (its lock file included) byte-identical.
git diff --exit-code -- benchmark BENCHMARK.json
