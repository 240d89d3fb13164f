//! What the process itself can tell us: a counting allocator, the
//! kernel's per-process accounting under `/proc/self`, and the
//! environment stamp every result carries.

use serde_json::{json, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator that counts allocations and bytes requested. The
/// counters publish no other data, so `Relaxed` is enough; the cost is
/// two uncontended atomic adds per allocation, the same in traced and
/// untraced runs.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes newly requested)` since process start, all
/// threads.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The kernel's `USER_HZ`: the unit of `utime`/`stime` in
/// `/proc/self/stat`. It is 100 on every Linux ABI this workspace
/// builds for, and there is no std call to ask.
const USER_HZ: f64 = 100.0;

/// A reading of the kernel's accounting for this process (all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSnapshot {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub minor_faults: u64,
    pub vol_ctx_switches: u64,
    pub rss_mb: f64,
    pub peak_rss_mb: f64,
}

impl ProcSnapshot {
    pub fn read() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        // Per-thread voluntary switches live under task/; the process
        // line in `status` is the main thread's only, so sum the tasks.
        let mut vol = 0u64;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for t in tasks.flatten() {
                let s = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
                vol += status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0.0) as u64;
            }
        }
        let mut snap = parse_stat(&stat);
        snap.vol_ctx_switches = vol;
        snap.rss_mb = status_field(&status, "VmRSS:").unwrap_or(0.0) / 1024.0;
        snap.peak_rss_mb = status_field(&status, "VmHWM:").unwrap_or(0.0) / 1024.0;
        snap
    }

    pub fn cpu_s(&self) -> f64 {
        self.cpu_user_s + self.cpu_sys_s
    }
}

/// Process CPU seconds so far (user + system, all threads).
pub fn cpu_seconds() -> f64 {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").unwrap_or_default()).cpu_s()
}

/// Parse `/proc/<pid>/stat`: the command name may contain spaces and
/// parentheses, so fields are counted from the last `)`.
fn parse_stat(stat: &str) -> ProcSnapshot {
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state(0) ppid pgrp session tty tpgid flags
    // minflt(7) cminflt majflt cmajflt utime(11) stime(12).
    let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    ProcSnapshot {
        cpu_user_s: num(11) as f64 / USER_HZ,
        cpu_sys_s: num(12) as f64 / USER_HZ,
        minor_faults: num(7),
        ..Default::default()
    }
}

/// Numeric value of a `Key:   123 kB` line of `/proc/self/status`.
fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The pool size the tensor kernels will use in this process.
pub fn pool_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

/// Where and how the numbers were taken. Everything here can change a
/// timing without a line of code changing.
pub fn environment() -> Value {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let rustflags = option_env!("CARGO_ENCODED_RUSTFLAGS").unwrap_or("");
    json!({
        "nproc": nproc() as u64,
        "git_rev": run("git", &["rev-parse", "--short", "HEAD"]),
        "rustc": run("rustc", &["-V"]),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "target_cpu": if rustflags.contains("target-cpu") { rustflags } else { "baseline" },
        "arch": std::env::consts::ARCH,
        "total_ram_mb": status_field(&meminfo, "MemTotal:").unwrap_or(0.0) / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command() {
        let line =
            "42 (a (weird) name) S 1 42 42 0 -1 4194304 1234 0 5 0 250 75 0 0 20 0 3 0 100 1 2";
        let s = parse_stat(line);
        assert_eq!(s.minor_faults, 1234);
        assert_eq!(s.cpu_user_s, 2.5);
        assert_eq!(s.cpu_sys_s, 0.75);
    }

    #[test]
    fn status_fields_parse() {
        let status =
            "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(2048.0));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(17.0));
        assert_eq!(status_field(status, "Missing:"), None);
    }

    #[test]
    fn live_snapshot_is_sane() {
        let before = alloc_counters();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let after = alloc_counters();
        assert!(after.0 > before.0 && after.1 >= before.1 + 4096);
        let snap = ProcSnapshot::read();
        assert!(snap.peak_rss_mb >= snap.rss_mb && snap.rss_mb > 0.0);
    }
}
