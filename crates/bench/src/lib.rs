//! # trkx-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the experiment index):
//!
//! | Target | Paper artifact | Binary |
//! |--------|----------------|--------|
//! | Table I | dataset statistics | `cargo run -p trkx-bench --bin table1 --release` |
//! | Figure 3 | epoch time vs process count | `cargo run -p trkx-bench --bin fig3_epoch_time --release` |
//! | Figure 4 | convergence curves | `cargo run -p trkx-bench --bin fig4_convergence --release` |
//! | ablations | design-choice sweeps | `cargo run -p trkx-bench --bin ablations --release` |
//! | funnel | per-stage pipeline funnel | `cargo run -p trkx-bench --bin pipeline_funnel --release` |
//!
//! These five bins regenerate paper artifacts; performance is measured
//! in one place only, the `benchmark/` package (`benchmark/run.sh`).
//! Experiment scales are configurable; the defaults recorded in
//! EXPERIMENTS.md run on a laptop.

use std::io::Write;

/// Markdown table writer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = writeln!(lock, "{}", self.render());
    }
}

/// Parse `--key value` style CLI overrides (harnesses keep flags minimal).
pub fn arg_value<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Append a JSON result line to `results/<name>.jsonl` (machine-readable
/// record backing EXPERIMENTS.md).
pub fn append_jsonl(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("{name}.jsonl")))
        {
            let _ = writeln!(f, "{value}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "10000".into()]);
        let r = t.render();
        assert!(r.contains("| name  | value |"));
        assert!(r.contains("| alpha | 1     |"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn arg_value_parses_and_defaults() {
        let args: Vec<String> = ["--scale", "0.25", "--epochs", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--scale", 1.0f64), 0.25);
        assert_eq!(arg_value(&args, "--epochs", 1usize), 7);
        assert_eq!(arg_value(&args, "--missing", 42i32), 42);
        assert_eq!(arg_value::<usize>(&args, "--scale", 3), 3); // parse failure -> default
    }
}
