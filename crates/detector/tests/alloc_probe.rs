//! Allocation bound of the φ-window tuner on a dense event. Tuning
//! bisects the window over 24 probes, the first at π/2, where a CTD-like
//! event at scale 0.05 has ~14M candidate doublets. Each probe counts
//! its doublets with the scan `candidate_graph` runs and builds none of
//! them, so the call allocates the φ-sorted layer buckets once and
//! nothing per probe. Counting allocator, hence its own test binary.

use rand::{rngs::StdRng, SeedableRng};
use trkx_detector::{simulate_event, tune_phi_window, DatasetConfig};

#[path = "../../tensor/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::count_alloc_bytes;

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

/// One `#[test]` for the whole binary: see `counting_alloc.rs`.
#[test]
fn tuning_the_phi_window_allocates_the_layer_buckets_only() {
    let cfg = DatasetConfig::ctd_like(0.05);
    let mut rng = StdRng::seed_from_u64(5);
    // The generator's own calibration: a 64-particle probe event sets
    // the particle count that reaches the target hit count.
    let probe = simulate_event(&cfg.geometry, &cfg.gun, 64, cfg.noise_fraction, &mut rng);
    let particles = (cfg.target_vertices as f64 * 64.0 / probe.num_hits() as f64).round();
    let event = simulate_event(
        &cfg.geometry,
        &cfg.gun,
        particles as usize,
        cfg.noise_fraction,
        &mut rng,
    );
    let mut window = 0.0;
    let bytes = count_alloc_bytes(|| {
        window = tune_phi_window(&event, cfg.z_window, cfg.edge_ratio());
    });
    let n = event.num_hits();
    eprintln!("tune_phi_window: {bytes} bytes on {n} hits, window {window}");
    assert!(n > 15_000, "{n} hits: not the dense event this bounds");
    assert!(window > 0.0 && window < 1.0, "window {window}");
    // One (φ, hit) pair of 8 bytes per hit, allocated as its bucket
    // grows, plus the stable sort's scratch: 64 bytes a hit is room for
    // both and ~1 MB here. Building each probe's doublet lists instead
    // allocates ~1 GB over the call.
    assert!(bytes <= 64 * n, "{bytes} bytes allocated on {n} hits");
}
