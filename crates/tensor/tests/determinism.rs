//! Bit-exactness tests for the parallel message-passing kernels.
//!
//! Every test in this binary first forces the parallel code paths with
//! `trkx_tensor::force_parallel_kernels()` (a process-wide switch, so this
//! binary must never be linked into the unit-test harness). The
//! assertions anchor each parallel kernel to a
//! thread-count-independent reference — the serial scatter/gather kernels,
//! or a reimplementation of the fixed chunking — so passing at any pool
//! size proves the kernel's output does not depend on the thread count.
//!
//! `ci.sh` runs this binary twice, under `RAYON_NUM_THREADS=1` and
//! `RAYON_NUM_THREADS=4`, turning the same assertions into a determinism
//! check at two pool sizes.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use trkx_tensor::{force_parallel_kernels, sigmoid, EdgePlan, EdgePlans, Matrix, Op, Tape};

/// Random COO endpoints over `nodes` vertices; with few nodes and many
/// edges this produces heavy duplication, with many nodes and few edges
/// it leaves most nodes isolated.
fn random_endpoints(rng: &mut StdRng, nodes: usize, edges: usize) -> Vec<u32> {
    (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect()
}

#[test]
fn planned_scatter_matches_serial_kernel() {
    force_parallel_kernels();
    let mut rng = StdRng::seed_from_u64(7);
    // (nodes, edges) shapes covering the paper's regime plus the edge
    // cases: empty graph, no edges, one hub node (every edge duplicated
    // onto it), and sparse graphs where most nodes are isolated.
    let shapes = [(0, 0), (5, 0), (1, 64), (37, 200), (300, 40), (64, 1000)];
    for &(nodes, edges) in &shapes {
        for cols in [1usize, 3, 8] {
            let idx = random_endpoints(&mut rng, nodes.max(1), edges);
            let idx = if nodes == 0 { Vec::new() } else { idx };
            let a = Matrix::randn(edges, cols, 1.0, &mut rng);
            let serial = a.scatter_add_rows(&idx, nodes);
            let plan = EdgePlan::new(&idx, nodes);
            let mut planned = Matrix::zeros(nodes, cols);
            a.scatter_rows_planned_acc(&plan, &mut planned);
            assert_eq!(
                serial.data(),
                planned.data(),
                "planned scatter diverged from serial kernel \
                 (nodes={nodes} edges={edges} cols={cols})"
            );
        }
    }
}

#[test]
fn planned_tape_scatter_matches_serial_tape_scatter() {
    force_parallel_kernels();
    let mut rng = StdRng::seed_from_u64(11);
    let (nodes, edges, h) = (53, 400, 8);
    let src = Arc::new(random_endpoints(&mut rng, nodes, edges));
    let plan = Arc::new(EdgePlan::new(&src, nodes));
    let e = Matrix::randn(edges, h, 1.0, &mut rng);
    // Random weighting so the upstream gradient is row-dependent.
    let w_scatter = Matrix::randn(nodes, h, 1.0, &mut rng);

    // loss = sum(scatter_add(e) * w), built once with the serial op and
    // once with the planned op.
    let run = |planned: bool| {
        let mut t = Tape::new();
        let ev = t.leaf(e.clone());
        let s = if planned {
            t.eval(Op::ScatterAdd {
                a: ev.0,
                idx: src.clone(),
                plan: Some(plan.clone()),
                out_rows: nodes,
            })
        } else {
            t.scatter_add(ev, src.clone(), nodes)
        };
        let ws = t.constant(w_scatter.clone());
        let ls = t.hadamard(s, ws);
        let loss = t.sum_all(ls);
        t.backward(loss);
        (t.value(loss).as_scalar(), t.grad(ev).unwrap().clone())
    };
    let (v_serial, ge_serial) = run(false);
    let (v_planned, ge_planned) = run(true);
    assert_eq!(
        v_serial.to_bits(),
        v_planned.to_bits(),
        "forward value diverged"
    );
    assert_eq!(
        ge_serial.data(),
        ge_planned.data(),
        "scatter backward diverged"
    );
}

#[test]
fn gather_concat_matches_unfused_composite() {
    force_parallel_kernels();
    let mut rng = StdRng::seed_from_u64(13);
    for (nodes, edges, wy, wx) in [(40, 256, 4, 6), (1, 32, 2, 3), (90, 0, 4, 4)] {
        let src = Arc::new(random_endpoints(&mut rng, nodes, edges));
        let dst = Arc::new(random_endpoints(&mut rng, nodes, edges));
        let plans = Arc::new(EdgePlans::new(src.clone(), dst.clone(), nodes));
        let x = Matrix::randn(nodes, wx, 1.0, &mut rng);
        let y = Matrix::randn(edges, wy, 1.0, &mut rng);
        let w = Matrix::randn(edges, wy + 2 * wx, 1.0, &mut rng);

        let run = |fused: bool| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let yv = t.leaf(y.clone());
            let cat = if fused {
                t.gather_concat(yv, xv, plans.clone())
            } else {
                let xs = t.gather(xv, src.clone());
                let xd = t.gather(xv, dst.clone());
                t.concat_cols(&[yv, xs, xd])
            };
            let wv = t.constant(w.clone());
            let h = t.hadamard(cat, wv);
            let loss = t.sum_all(h);
            // Backward frees what it read, the concatenation among them.
            let cat = t.value(cat).clone();
            t.backward(loss);
            (
                cat,
                t.grad(xv).unwrap().clone(),
                t.grad(yv).unwrap().clone(),
            )
        };
        let (cat_u, gx_u, gy_u) = run(false);
        let (cat_f, gx_f, gy_f) = run(true);
        assert_eq!(cat_u.data(), cat_f.data(), "fused forward diverged");
        assert_eq!(gx_u.data(), gx_f.data(), "fused x-gradient diverged");
        assert_eq!(gy_u.data(), gy_f.data(), "fused y-gradient diverged");
    }
}

#[test]
fn parallel_row_kernels_match_serial_references() {
    force_parallel_kernels();
    let mut rng = StdRng::seed_from_u64(17);
    let (rows, w1, w2) = (200, 5, 9);
    let a = Matrix::randn(rows, w1, 1.0, &mut rng);
    let b = Matrix::randn(rows, w2, 1.0, &mut rng);

    // concat_cols / slice_cols are pure copies: one writer per output
    // row, so the parallel path must reproduce a naive loop exactly.
    let cat = Matrix::concat_cols(&[&a, &b]);
    for r in 0..rows {
        let mut want = a.row(r).to_vec();
        want.extend_from_slice(b.row(r));
        assert_eq!(cat.row(r), &want[..], "concat row {r}");
    }
    let sl = cat.slice_cols(w1, w1 + w2);
    for r in 0..rows {
        assert_eq!(sl.row(r), b.row(r), "slice row {r}");
    }

    // gather_rows: parallel over output rows, each a single copy.
    let idx = random_endpoints(&mut rng, rows, 333);
    let g = cat.gather_rows(&idx);
    for (i, &r) in idx.iter().enumerate() {
        assert_eq!(g.row(i), cat.row(r as usize), "gather row {i}");
    }

    // row_sums: each row reduces serially left-to-right.
    let sums = cat.row_sums();
    for r in 0..rows {
        let want: f32 = cat.row(r).iter().sum();
        assert_eq!(sums.get(r, 0).to_bits(), want.to_bits(), "row_sum {r}");
    }
}

#[test]
fn parallel_bce_matches_fixed_chunk_reference() {
    force_parallel_kernels();
    // Mirrors REDUCE_CHUNK in ops.rs: the parallel reduction must group
    // partials by this constant (never by thread count) for the loss to
    // be pool-size independent.
    const REDUCE_CHUNK: usize = 8192;
    let n = 20_000; // spans three chunks, last one partial
    let mut rng = StdRng::seed_from_u64(19);
    let logits = Matrix::randn(n, 1, 2.0, &mut rng);
    let targets: Vec<f32> = (0..n).map(|_| f32::from(rng.gen_bool(0.3))).collect();
    let pw = 1.7f32;

    let mut t = Tape::new();
    let lv = t.leaf(logits.clone());
    let loss = t.bce_with_logits(lv, Arc::new(targets.clone()), pw);
    t.backward(loss);
    let got = t.value(loss).as_scalar();
    let grad = t.grad(lv).unwrap().clone();

    // Reference loss: per-chunk f64 partials combined in chunk order.
    let xd = logits.data();
    let mut acc = 0.0f64;
    for c in 0..n.div_ceil(REDUCE_CHUNK) {
        let (lo, hi) = (c * REDUCE_CHUNK, ((c + 1) * REDUCE_CHUNK).min(n));
        let mut part = 0.0f64;
        for (&xi, &ti) in xd[lo..hi].iter().zip(&targets[lo..hi]) {
            let w = if ti > 0.5 { pw } else { 1.0 };
            let l = xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln();
            part += (w * l) as f64;
        }
        acc += part;
    }
    let want = (acc / n as f64) as f32;
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "bce loss diverged from chunked reference"
    );

    // Reference gradient: elementwise, one writer per slot.
    let go = 1.0f32 / n as f32;
    for i in 0..n {
        let (xi, ti) = (xd[i], targets[i]);
        let w = if ti > 0.5 { pw } else { 1.0 };
        let want = go * w * (sigmoid(xi) - ti);
        assert_eq!(grad.data()[i].to_bits(), want.to_bits(), "bce grad {i}");
    }
}

#[test]
fn blocked_matmul_is_thread_count_invariant() {
    force_parallel_kernels();
    let mut rng = StdRng::seed_from_u64(41);
    // Shapes straddling the MR=8 tile and NR=16 panel boundaries, plus
    // the paper's edge-regime shape (many rows, narrow features).
    for (m, k, n) in [(7, 5, 3), (17, 16, 15), (64, 66, 32), (513, 33, 9)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let at = a.transpose();
        let bt = b.transpose();

        // References: one sequential accumulator per element, ascending
        // reduction index — independent of tiles, blocks, and threads.
        let mut nn = vec![0.0f32; m * n];
        for r in 0..m {
            for c in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.data()[r * k + kk] * b.data()[kk * n + c];
                }
                nn[r * n + c] = acc;
            }
        }
        let got_nn = a.matmul(&b);
        assert_eq!(got_nn.data(), &nn[..], "matmul diverged ({m}x{k}x{n})");

        let got_tn = at.matmul_tn(&b);
        assert_eq!(got_tn.data(), &nn[..], "matmul_tn diverged ({m}x{k}x{n})");

        // NT pins the dot8 lane order, which differs from the ascending
        // scalar walk — anchor it to itself across pool sizes instead:
        // the serial path (forced by m=1 row splits) must match the
        // parallel one. Each output element is produced by exactly one
        // task, so the comparison is exact.
        let got_nt = a.matmul_nt(&bt);
        let mut row = Matrix::zeros(1, n);
        for r in 0..m {
            row.fill(0.0);
            let a_row = Matrix::from_vec(1, k, a.data()[r * k..(r + 1) * k].to_vec());
            a_row.matmul_nt_acc(&bt, &mut row);
            assert_eq!(
                &got_nt.data()[r * n..(r + 1) * n],
                row.data(),
                "matmul_nt row {r} diverged ({m}x{k}x{n})"
            );
        }
    }
}

#[test]
fn parallel_tanh_matches_row_by_row() {
    force_parallel_kernels();
    let mut rng = StdRng::seed_from_u64(41);
    // The embedding stage's hidden shape (271 hits x 64): above the
    // parallel gate, so it splits over the pool. Row by row, each call
    // is one task.
    let (rows, cols) = (271, 64);
    let mut a = Matrix::randn(rows, cols, 3.0, &mut rng);
    for (i, v) in a.data_mut().iter_mut().enumerate().step_by(97) {
        *v = [0.0, -0.0, 1e-40, f32::INFINITY, f32::NAN, -30.0][i % 6];
    }
    let mut par = Matrix::zeros(rows, cols);
    a.tanh_into(&mut par);
    for r in 0..rows {
        let row = Matrix::from_vec(1, cols, a.row(r).to_vec());
        let mut serial = Matrix::zeros(1, cols);
        row.tanh_into(&mut serial);
        for (&p, &s) in par.row(r).iter().zip(serial.data()) {
            assert!(
                p.to_bits() == s.to_bits() || (p.is_nan() && s.is_nan()),
                "row {r}: parallel {p:e} vs serial {s:e}"
            );
        }
    }
}
