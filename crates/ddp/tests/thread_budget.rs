//! The one thread budget under DDP: every rank of `run_workers` holds its
//! core, so with at least as many ranks as pool threads each rank's
//! kernels run serially, and the caller gets the whole pool back once the
//! ranks are done.
//!
//! One `#[test]` in its own binary: the budget is process-wide, and a
//! concurrent test's ranks would hold cores this one counts. `ci.sh` runs
//! it under `RAYON_NUM_THREADS=1` and `=4`.

use std::sync::Barrier;
use trkx_ddp::run_workers;
use trkx_tensor::current_num_threads;

#[test]
fn ranks_as_many_as_cores_each_run_serially_and_release_their_cores() {
    let pool = current_num_threads();
    let p = pool.max(2);
    let all_holding = Barrier::new(p);
    let widths = run_workers(p, |_| {
        all_holding.wait();
        let width = current_num_threads();
        // No rank releases its core before every rank has looked.
        all_holding.wait();
        width
    });
    assert_eq!(widths, vec![1; p], "pool {pool}, {p} ranks");
    assert_eq!(current_num_threads(), pool, "ranks did not release");
}
