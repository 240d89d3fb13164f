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
        // Zero counts, which used to panic.
        ("train", &["--workers", "0"]),
        ("train", &["--batch", "0"]),
        ("sample", &["--batch", "0"]),
        // Zero counts that used to be clamped to 1 behind the banner's back.
        ("serve", &["--model", "missing.json", "--workers", "0"]),
        ("serve", &["--model", "missing.json", "--max-queue", "0"]),
        // Removed at the cut to the paper's two samplers and one trainer.
        ("train", &["--hogwild"]),
        ("sample", &["--sampler", "nodewise"]),
        ("sample", &["--sampler", "layerwise"]),
        ("sample", &["--fanout", "6"]),
        ("sample", &["--hops", "3"]),
        ("sample", &["--layer-size", "512"]),
        // Zero sizes: a panic in the GEMM, or a bulk factor quietly run as 1.
        ("train", &["--hidden", "0"]),
        ("evaluate", &["--model", "missing.json", "--hidden", "0"]),
        ("reconstruct", &["--hidden", "0"]),
        ("train", &["--bulk-k", "0"]),
        // Removed with the backward-overlapped bucket scheduler.
        ("train", &["--comm-overlap"]),
        ("train", &["--bucket-bytes", "4096"]),
        // Removed with the background batch loader.
        ("train", &["--prefetch", "2"]),
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
fn train_honours_telemetry() {
    let jsonl = tmp("telemetry.jsonl");
    let _ = std::fs::remove_file(&jsonl);
    let out = trkx_train(&["--workers", "2", "--telemetry", jsonl.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records = std::fs::read_to_string(&jsonl).expect("telemetry written");
    assert_eq!(records.lines().count(), 2, "one record per epoch");
    // Every epoch is sampling, then training, then communication.
    for line in records.lines() {
        for key in ["\"sampling_s\":", "\"train_s\":", "\"comm_virtual_s\":"] {
            assert!(line.contains(key), "{key} missing: {line}");
        }
        assert!(!line.contains("overlapped"), "{line}");
    }
    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(tmp("model.json"));
}

#[test]
fn telemetry_that_cannot_be_written_is_reported() {
    // A path that cannot be opened fails the run before training, with
    // one stderr line naming it.
    let missing = tmp("no_such_dir").join("epochs.jsonl");
    let out = trkx_train(&["--telemetry", missing.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains(missing.to_str().unwrap()), "{stderr}");
    // A file that opens but refuses writes: each epoch's failed write is
    // reported on stderr and training still finishes.
    if std::path::Path::new("/dev/full").exists() {
        let out = trkx_train(&["--telemetry", "/dev/full"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let failed = stderr.lines().filter(|l| l.contains("/dev/full")).count();
        assert_eq!(failed, 2, "one report per epoch: {stderr}");
    }
    let _ = std::fs::remove_file(tmp("model.json"));
}

/// Run `trkx` with `$TMPDIR` pointed at `tmpdir`; returns the child's pid
/// and output.
fn trkx_in_tmpdir(tmpdir: &std::path::Path, args: &[&str]) -> (u32, Output) {
    let child = Command::new(env!("CARGO_BIN_EXE_trkx"))
        .args(args)
        .env("TMPDIR", tmpdir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn trkx");
    let pid = child.id();
    (pid, child.wait_with_output().expect("wait for trkx"))
}

#[test]
fn sharded_runs_remove_their_default_shard_dir_and_keep_a_given_one() {
    let tmpdir = tmp("tmpdir");
    let _ = std::fs::remove_dir_all(&tmpdir);
    std::fs::create_dir_all(&tmpdir).unwrap();

    let (pid, out) = trkx_in_tmpdir(
        &tmpdir,
        &[
            "sample",
            "--graph-store",
            "sharded",
            "--scale",
            "0.01",
            "--repeat",
            "1",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The rows between the table header and the blank line before the
    // shard-cache summary name the samplers that ran.
    let rows: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("sampler "))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(rows, ["shadow", "bulk-shadow"], "{stdout}");
    assert!(stdout.contains("shard cache:"), "{stdout}");
    let shards = tmpdir.join(format!("trkx-sample-{pid}"));
    assert!(!shards.exists(), "{} left behind", shards.display());

    let model = tmp("sharded_model.json");
    let train = |extra: &[&str]| {
        let mut args = vec!["train", "--graph-store", "sharded", "--out"];
        args.push(model.to_str().unwrap());
        args.extend(TINY);
        args.extend(extra);
        trkx_in_tmpdir(&tmpdir, &args)
    };
    let (pid, out) = train(&[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let shards = tmpdir.join(format!("trkx-shards-{pid}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&shards.display().to_string()), "{stdout}");
    assert!(!shards.exists(), "{} left behind", shards.display());

    let given = tmpdir.join("given");
    let (_, out) = train(&["--shard-dir", given.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        given.read_dir().unwrap().next().is_some(),
        "--shard-dir emptied"
    );

    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_dir_all(&tmpdir);
}
