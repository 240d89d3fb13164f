#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), docs (warnings
# are errors), release build, the full workspace test suite, and a short
# train-step smoke run that gates hot-path allocation regressions.
# Run from the repo root.
set -euo pipefail

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --workspace --release
cargo test -q --workspace --release

# Allocation gate: the pooled-tape train step must stay at or below the
# recorded budget (BENCH_trainstep.json baseline is 70 allocs/step with
# the fused message-passing path, the blocked GEMM's pooled packing
# scratch, and the shim pool's POD unit queue).
cargo run -q --release -p trkx-bench --bin trainstep -- \
    --steps 5 --out /tmp/BENCH_trainstep_smoke.json --max-allocs 72

# Matmul scaling smoke: sweep pool sizes 1/2/4 with the parallel GEMM
# path forced on for every shape. Gates (a) the structural
# fused-shrinks-the-tape invariant at each pool size and (b) allocation
# flatness — per-thread pooled scratch means the fused step's alloc
# count must not vary with the pool size (±5 tolerates one-off pool
# warmup effects).
TRKX_PAR_MATMUL_THRESHOLD=1 cargo run -q --release -p trkx-bench --bin mp -- \
    --edges 2048 --layers 2 --reps 2 --threads 1,2,4 \
    --max-alloc-spread 5 --out /tmp/BENCH_mp_smoke.json

# Determinism suites at two pool sizes with every size gate forced off:
# the parallel kernels (message passing AND the blocked GEMM panels) are
# pinned to serial references bit for bit, so passing at both sizes
# proves thread-count invariance.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-tensor --test determinism
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --test determinism
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-tensor --test matmul_blocked
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --test matmul_blocked

# Zero-alloc steady state for the pool executor and the GEMM kernels at
# a multi-thread pool size.
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --test alloc_probe
(cd shims/rayon && RAYON_NUM_THREADS=4 cargo test -q --release --test alloc_probe)

# Prefetch gate: on a tiny Ex3-like workload the overlapped (prefetching)
# virtual-clock schedule must never cost more than the serial one.
cargo run -q --release -p trkx-bench --bin fig3_epoch_time -- --overlap --tiny

# DDP golden + determinism at two pool sizes: overlapped bucket
# all-reduce must stay bit-identical to the post-hoc sync (both the
# threaded and the simulated trainer), grad-readiness must fire exactly
# once per leaf at its true last accumulation, and the DDP gradient-sync
# step must stay allocation-free in steady state.
RAYON_NUM_THREADS=1 cargo test -q --release --test ddp_equivalence
RAYON_NUM_THREADS=4 cargo test -q --release --test ddp_equivalence
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-tensor --test grad_ready
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-tensor --test grad_ready
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-ddp --test alloc_probe

# Comm-overlap gate: firing each bucket's all-reduce during backward
# must leave strictly less communication exposed than the serial
# account at P>=2, and never slow the epoch down.
cargo run -q --release -p trkx-bench --bin fig3_epoch_time -- --comm-overlap --tiny

# DDP bench smoke: bucket ladder x overlap arms must agree bit-for-bit
# on the final loss, plus the Hogwild-vs-sync curve study.
cargo run -q --release -p trkx-bench --bin ddp -- --tiny --out /tmp/BENCH_ddp_smoke.json

# Serve smoke gate: train a tiny bundle, start `trkx serve` on stdio,
# push a burst that includes one oversized event (which must shed with an
# explicit response), and require well-formed responses plus a clean
# drain-and-exit shutdown. The release-profile run of the same test is
# already in the workspace suite above; this re-runs it by name so a
# serving regression fails fast with its own line in the CI log.
cargo test -q --release --test serve_e2e

# Serve bench smoke: one tiny (workers, batch) arm through the
# micro-batching core; asserts every sized event completes and the
# oversized one sheds.
cargo run -q --release -p trkx-bench --bin serve -- --tiny --out /tmp/BENCH_serve_smoke.json

# Graph-construction engine gates: the grid/kd/brute backends must emit
# bit-identical edge lists (property-pinned, including duplicate,
# colinear, and NaN clouds) at two pool sizes, and the construct bench
# smoke gates cross-backend/cross-thread parity hashes plus the pooled
# engine's flat per-event allocation count.
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-graph --test proptests
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-graph --test proptests
cargo run -q --release -p trkx-bench --bin construct -- --tiny --out /tmp/BENCH_construct_smoke.json

# Out-of-core sharded store gates: every sampler family must be
# bit-identical over the file-backed ShardedCsr vs in-core CSR across
# shard sizes and cache capacities (run at two pool sizes), the
# sharded-vs-in-core training curve must match bit for bit, and the
# oocore bench smoke (capacity-1 cache in the sweep forces evictions;
# the bin itself gates parity, evictions, >=10x disk-over-budget, and
# loss-bit parity).
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-sampling --test sharded_parity
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-sampling --test sharded_parity
RAYON_NUM_THREADS=1 cargo test -q --release -p trkx-core sharded_store_training_is_bit_identical_to_in_core
RAYON_NUM_THREADS=4 cargo test -q --release -p trkx-core sharded_store_training_is_bit_identical_to_in_core
cargo run -q --release -p trkx-bench --bin oocore -- --tiny --out /tmp/BENCH_oocore_smoke.json

# Frozen benchmark package: tier-1 never builds `benchmark/`, so a
# public-API change that breaks it must fail here. Type-check it against
# the workspace crates and run its own unit tests (same build directory
# the benchmark driver uses).
CARGO_TARGET_DIR=.bench_build cargo check --release --offline --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
