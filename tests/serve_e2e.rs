//! End-to-end serving test against the real `trkx` binary: train a tiny
//! pipeline, save the bundle, start `trkx serve` on stdio, push a burst
//! of events — including one whose hit times are JSON `null` and one
//! oversized event that must shed — then ask for stats and a clean
//! shutdown.

use rand::{rngs::StdRng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use trkx::detector::{simulate_event, DetectorGeometry, GunConfig};

#[test]
fn serve_answers_bursts_sheds_oversized_events_and_shuts_down_cleanly() {
    let trkx = env!("CARGO_BIN_EXE_trkx");
    let dir = std::env::temp_dir().join(format!("trkx_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("pipeline.json");

    // Train the smallest pipeline that exercises all five stages and
    // save the bundle via `reconstruct --out`.
    let train = Command::new(trkx)
        .args([
            "reconstruct",
            "--particles",
            "15",
            "--events",
            "4",
            "--epochs",
            "2",
            "--hidden",
            "16",
            "--layers",
            "2",
            "--embed-epochs",
            "6",
            "--out",
        ])
        .arg(&model)
        .output()
        .expect("run trkx reconstruct");
    assert!(
        train.status.success(),
        "training failed:\n{}",
        String::from_utf8_lossy(&train.stderr)
    );
    assert!(model.exists(), "bundle not written");

    // Request stream: 6 serveable events plus one oversized event above
    // the hit budget we pass to the server.
    let geometry = DetectorGeometry::default();
    let gun = GunConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut events: Vec<_> = (0..6)
        .map(|_| simulate_event(&geometry, &gun, 15, 0.1, &mut rng))
        .collect();
    // Non-finite floats serialise as `null`, which parses back as NaN:
    // the truth sorts must not panic on it.
    for h in &mut events[5].hits {
        h.t = f32::NAN;
    }
    let budget = events.iter().map(|e| e.num_hits()).max().unwrap() * 2;
    let oversized = loop {
        let e = simulate_event(&geometry, &gun, 120, 0.1, &mut rng);
        if e.num_hits() > budget {
            break e;
        }
    };

    let mut server = Command::new(trkx)
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--workers", "2", "--max-event-hits", &budget.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trkx serve");
    let mut stdin = server.stdin.take().unwrap();
    let stdout = BufReader::new(server.stdout.take().unwrap());

    // One burst (ids 0..6), the oversized event (id 6), stats, shutdown.
    for (i, e) in events.iter().enumerate() {
        let line = format!(
            "{{\"id\":{i},\"event\":{}}}",
            serde_json::to_string(e).unwrap()
        );
        assert_eq!(line.contains("\"t\":null"), i == 5);
        writeln!(stdin, "{line}").unwrap();
    }
    writeln!(
        stdin,
        "{{\"id\":6,\"event\":{}}}",
        serde_json::to_string(&oversized).unwrap()
    )
    .unwrap();
    writeln!(stdin, "{{\"cmd\":\"stats\"}}").unwrap();
    writeln!(stdin, "{{\"cmd\":\"shutdown\"}}").unwrap();
    drop(stdin);

    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut acks = 0usize;
    let mut saw_stats = false;
    for line in stdout.lines() {
        let line = line.unwrap();
        let v = serde_json::parse_value(&line).expect("well-formed response line");
        let status = v
            .get("status")
            .and_then(|s| s.as_str())
            .unwrap()
            .to_string();
        match v.get("id").and_then(|i| i.as_u64()) {
            Some(6) => {
                assert_eq!(status, "shed", "oversized event must shed: {line}");
                let reason = v.get("reason").and_then(|r| r.as_str()).unwrap();
                assert!(reason.contains("event_too_large"), "{reason}");
                shed += 1;
            }
            Some(id) => {
                assert!(id < 6, "unknown id in {line}");
                assert_eq!(status, "ok", "event {id} failed: {line}");
                assert!(line.contains("\"tracks\":["), "ok responses carry tracks");
                let t = v.get("timings_us").expect("ok responses carry timings");
                assert!(t.get("total_us").and_then(|u| u.as_u64()).unwrap() > 0);
                ok += 1;
            }
            None => {
                assert_eq!(status, "ok", "{line}");
                // Shed counting is synchronous at admission, so by the
                // time the stats request was even submitted the oversized
                // event was already recorded.
                if let Some(shed_count) = v
                    .get("stats")
                    .and_then(|s| s.get("shed_too_large"))
                    .and_then(|s| s.as_u64())
                {
                    saw_stats = true;
                    assert_eq!(shed_count, 1, "{line}");
                }
                acks += 1;
            }
        }
    }
    assert_eq!(ok, 6, "every serveable event answered");
    assert_eq!(shed, 1, "exactly one shed");
    assert!(saw_stats, "stats snapshot answered");
    assert_eq!(acks, 2, "stats + shutdown acks");

    let status = server.wait().expect("server exit");
    assert!(status.success(), "server must exit cleanly after shutdown");
    std::fs::remove_dir_all(&dir).ok();
}
