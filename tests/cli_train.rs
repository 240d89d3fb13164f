//! `trkx` flag handling against the real binary (`train` mostly): every
//! flag is either honoured or rejected as a usage error (exit code 2) —
//! none is accepted and ignored, and no input reaches a panic.

use std::process::{Command, Output};

const TINY: [&str; 12] = [
    "--scale", "0.01", "--events", "10", "--epochs", "2", "--hidden", "8", "--layers", "2",
    "--batch", "32",
];

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("trkx_cli_train_{}_{name}", std::process::id()))
}

fn trkx_train(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trkx"))
        .arg("train")
        .args(TINY)
        .arg("--out")
        .arg(tmp("model.json"))
        .args(extra)
        .output()
        .expect("run trkx train")
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn too_few_events_for_a_training_split_is_a_usage_error() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_trkx"));
    let out = cmd.args(["train", "--events", "1"]).output().unwrap();
    assert_usage_error(&out, "--events 1");
}

#[test]
fn what_the_command_line_does_not_understand_is_a_usage_error() {
    for (cmd, flags) in [
        ("train", &["--evnts", "7"][..]), // unknown flag
        ("train", &["--seed"]),           // flag without its value
        ("train", &["--seed", "notanumber"]),
        ("train", &["--sampler", "bluk"]), // unknown enum value
        ("reconstruct", &["--construct-backend", "kd"]), // removed at PR 14
        // Retired serve flags: rejected before the (missing) model loads.
        (
            "serve",
            &["--model", "missing.json", "--max-batch-events", "4"],
        ),
        (
            "serve",
            &["--model", "missing.json", "--max-batch-hits", "1"],
        ),
        ("simulate", &["--evnts", "7", "--seed", "notanumber"]),
    ] {
        let mut trkx = Command::new(env!("CARGO_BIN_EXE_trkx"));
        let out = trkx.arg(cmd).args(flags).output().unwrap();
        assert_usage_error(&out, &format!("{cmd} {flags:?}"));
    }
}

#[test]
fn train_names_its_gemm_kernel_once_on_stderr() {
    let out = trkx_train(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let lines: Vec<_> = stderr
        .lines()
        .filter(|l| l.starts_with("gemm kernel: "))
        .collect();
    assert!(
        matches!(lines[..], ["gemm kernel: avx2" | "gemm kernel: portable"]),
        "{stderr}"
    );
    let _ = std::fs::remove_file(tmp("model.json"));
}

#[test]
fn hogwild_rejects_the_flags_that_need_lockstep() {
    for flags in [
        &["--patience", "2"][..],
        &["--bucket-bytes", "4096"],
        &["--comm-overlap"],
    ] {
        let out = trkx_train(&[&["--hogwild", "--workers", "2"], flags].concat());
        assert_usage_error(&out, flags[0]);
    }
}

#[test]
fn hogwild_honours_telemetry_and_prefetch() {
    let jsonl = tmp("hogwild.jsonl");
    let _ = std::fs::remove_file(&jsonl);
    let out = trkx_train(&[
        "--hogwild",
        "--workers",
        "2",
        "--prefetch",
        "2",
        "--telemetry",
        jsonl.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records = std::fs::read_to_string(&jsonl).expect("telemetry written");
    assert_eq!(records.lines().count(), 2, "one record per epoch");
    // Prefetched epochs are accounted as overlapped.
    assert!(
        records.lines().all(|l| l.contains("\"overlapped\":true")),
        "{records}"
    );
    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(tmp("model.json"));
}
