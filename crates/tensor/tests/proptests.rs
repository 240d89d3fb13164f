//! Property-based tests for the dense matrix kernels and autograd tape.

use proptest::prelude::*;
use std::sync::Arc;
use trkx_tensor::{gradcheck, BufferPool, EdgePlan, EdgePlans, Matrix, Tape};

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..8, 1usize..8, 1usize..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_naive((m, k, n) in dims(),
                            seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let c = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                prop_assert!((c.get(i, j) - acc).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn matmul_distributes_over_add((m, k, n) in dims(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let c = Matrix::randn(k, n, 1.0, &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-3), "max diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn transpose_matmul_identity((m, k, n) in dims(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn concat_then_slice_recovers(a in matrix_strategy(3, 2), b in matrix_strategy(3, 4)) {
        let c = Matrix::concat_cols(&[&a, &b]);
        prop_assert!(c.slice_cols(0, 2).approx_eq(&a, 0.0));
        prop_assert!(c.slice_cols(2, 6).approx_eq(&b, 0.0));
    }

    #[test]
    fn gather_rows_selects(a in matrix_strategy(5, 3),
                           idx in proptest::collection::vec(0u32..5, 1..10)) {
        let g = a.gather_rows(&idx);
        prop_assert_eq!(g.rows(), idx.len());
        for (i, &r) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(i), a.row(r as usize));
        }
    }

    #[test]
    fn scatter_preserves_total_mass(a in matrix_strategy(6, 2),
                                    idx in proptest::collection::vec(0u32..4, 6)) {
        let s = a.scatter_add_rows(&idx, 4);
        prop_assert!((s.sum() - a.sum()).abs() < 1e-4);
    }

    #[test]
    fn tape_linear_gradient_is_input(x in matrix_strategy(4, 3), w in matrix_strategy(3, 1)) {
        // loss = sum(x·w) ⇒ dL/dw = column sums of x.
        let mut t = Tape::new();
        let xv = t.constant(x.clone());
        let wv = t.leaf(w);
        let y = t.matmul(xv, wv);
        let loss = t.sum_all(y);
        t.backward(loss);
        let grad = t.grad(wv).unwrap();
        let expect = x.col_sums().transpose();
        prop_assert!(grad.approx_eq(&expect, 1e-4));
    }

    #[test]
    fn planned_scatter_matches_serial(nodes in 1usize..12,
                                      cols in 1usize..6,
                                      idx_seed in 0u64..1000,
                                      edges in 0usize..40) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(idx_seed);
        let idx: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
        let a = Matrix::randn(edges, cols, 1.0, &mut rng);
        let serial = a.scatter_add_rows(&idx, nodes);
        let plan = EdgePlan::new(&idx, nodes);
        let mut planned = Matrix::zeros(nodes, cols);
        a.scatter_rows_planned_acc(&plan, &mut planned);
        prop_assert_eq!(serial.data(), planned.data());
    }

    #[test]
    fn gradcheck_gather_concat(seed in 0u64..200) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(2usize..6);
        let edges = rng.gen_range(1usize..10);
        let src: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
        let dst: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
        let plans = Arc::new(EdgePlans::new(Arc::new(src), Arc::new(dst), nodes));
        let x = Matrix::randn(nodes, 3, 0.5, &mut rng);
        let y = Matrix::randn(edges, 2, 0.5, &mut rng);
        let report = gradcheck(&[y, x], 1e-2, move |t, v| {
            let cat = t.gather_concat(v[0], v[1], plans.clone());
            let h = t.tanh(cat);
            t.mean_all(h)
        });
        prop_assert!(report.passes(3e-2), "{:?}", report);
    }

    #[test]
    fn gradcheck_random_composite(seed in 0u64..200) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::randn(3, 4, 0.5, &mut rng);
        let w = Matrix::randn(4, 2, 0.5, &mut rng);
        let idx = Arc::new(vec![2u32, 0, 1, 1]);
        let report = gradcheck(&[x, w], 1e-2, move |t, v| {
            let g = t.gather(v[0], idx.clone());
            let h = t.matmul(g, v[1]);
            let h = t.tanh(h);
            let h2 = t.hadamard(h, h);
            t.mean_all(h2)
        });
        prop_assert!(report.passes(3e-2), "{:?}", report);
    }

    #[test]
    fn pool_hands_out_exact_clean_covering_buffers(
        steps in proptest::collection::vec((0u8..5, 0usize..6000), 1..80),
    ) {
        // Any interleaving of takes, returns and foreign buffers: every
        // buffer has exactly the requested length and the promised
        // contents, over-allocation stays under a quarter above the
        // smallest class, and a parked buffer is handed out only for a
        // request its capacity covers (it comes back with the address
        // and capacity it was parked with, i.e. it was never regrown).
        let mut pool = BufferPool::new();
        let mut held: Vec<Vec<f32>> = Vec::new();
        let mut parked: Vec<(*const f32, usize)> = Vec::new();
        for (kind, n) in steps {
            if kind >= 3 {
                let buf = match held.pop() {
                    Some(buf) if kind == 3 => buf,
                    _ => vec![9.0; n],
                };
                let before = pool.parked();
                let id = (buf.as_ptr(), buf.capacity());
                pool.put(buf);
                if pool.parked() > before {
                    parked.push(id);
                }
                continue;
            }
            let before = pool.parked();
            let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let mut buf = match kind {
                0 => pool.take_zeroed(n),
                1 => pool.take_raw(n),
                _ => pool.take_copy(&src),
            };
            prop_assert_eq!(buf.len(), n);
            match kind {
                0 => prop_assert!(buf.iter().all(|&v| v == 0.0)),
                1 => {}
                _ => prop_assert_eq!(&buf, &src),
            }
            prop_assert!(buf.capacity() >= 64);
            if pool.parked() < before {
                let at = parked.iter().position(|&id| id == (buf.as_ptr(), buf.capacity()));
                prop_assert!(at.is_some(), "a parked buffer was regrown to {}", n);
                parked.swap_remove(at.unwrap());
            } else {
                prop_assert!(buf.capacity() == 64 || buf.capacity() * 4 <= n * 5);
            }
            buf.fill(7.0);
            held.push(buf);
        }
    }
}
