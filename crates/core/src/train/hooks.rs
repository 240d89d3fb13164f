//! The [`Hook`] callback of the [`TrainLoop`](crate::train::TrainLoop)
//! and its two built-ins: early stopping and structured per-epoch
//! telemetry.

use crate::early_stopping::EarlyStopping;
use crate::train::engine::EpochReport;
use std::fs::File;
use std::io::Write;
use std::sync::Arc;

/// Flow-control verdict of an epoch-end hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    Continue,
    Stop,
}

/// Observer/controller around the
/// [`TrainLoop`](crate::train::TrainLoop) epoch loop.
pub trait Hook {
    /// After the epoch's validation pass. Returning [`Control::Stop`]
    /// ends training after this epoch.
    fn on_epoch_end(&mut self, report: &EpochReport) -> Control;
}

/// Which scalar of an [`EpochReport`] a metric-driven hook watches.
/// All variants are higher-is-better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monitor {
    ValPrecision,
    ValF1,
}

impl Monitor {
    /// Extract the monitored value; NaN when the report lacks it.
    pub fn value(self, report: &EpochReport) -> f64 {
        match self {
            Monitor::ValPrecision => report.val_precision,
            Monitor::ValF1 => {
                if report.has_val() {
                    report.val_f1()
                } else {
                    f64::NAN
                }
            }
        }
    }
}

/// Stop training when the monitored metric has not improved for
/// `patience` consecutive epochs (wraps [`EarlyStopping`]). Epochs whose
/// report lacks the metric (NaN) are ignored. Must stay **opt-out** for
/// the Fig. 4 reproduction, which needs full fixed-length loss curves.
pub struct EarlyStoppingHook {
    monitor: Monitor,
    inner: EarlyStopping,
}

impl EarlyStoppingHook {
    pub fn new(monitor: Monitor, patience: usize, min_delta: f64) -> Self {
        Self {
            monitor,
            inner: EarlyStopping::new(patience, min_delta),
        }
    }
}

impl Hook for EarlyStoppingHook {
    fn on_epoch_end(&mut self, report: &EpochReport) -> Control {
        let value = self.monitor.value(report);
        if !value.is_nan() && self.inner.update(value) {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Stream structured per-epoch records to a sink (stderr-style progress
/// lines, JSONL files, in-memory collectors — anything `FnMut`).
pub struct TelemetryHook {
    sink: Box<dyn FnMut(&EpochReport)>,
}

impl TelemetryHook {
    pub fn new(sink: impl FnMut(&EpochReport) + 'static) -> Self {
        Self {
            sink: Box::new(sink),
        }
    }

    /// Append one JSON object per epoch to `file`, which the caller opens
    /// once before training (so a path that cannot be opened fails the
    /// run up front). A failed write is reported on stderr, naming
    /// `path`, and training goes on.
    pub fn jsonl(file: Arc<File>, path: String) -> Self {
        Self::new(move |report| {
            let line = serde_json::to_string(report).expect("an epoch report serializes");
            if let Err(e) = writeln!(&*file, "{line}") {
                eprintln!("telemetry: cannot write to {path}: {e}");
            }
        })
    }
}

impl Hook for TelemetryHook {
    fn on_epoch_end(&mut self, report: &EpochReport) -> Control {
        (self.sink)(report);
        Control::Continue
    }
}
