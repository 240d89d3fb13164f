//! Learning-rate schedules. The acorn training recipes the paper builds
//! on use warmup plus decay; these schedules compose with any
//! [`crate::Optimizer`] via [`Scheduler::apply`].

/// A learning-rate schedule: maps a 0-based epoch (or step) index to a
/// multiplier of the base learning rate.
pub trait LrSchedule {
    fn factor(&self, step: usize) -> f32;
}

/// Constant schedule (factor 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Constant;

impl LrSchedule for Constant {
    fn factor(&self, _step: usize) -> f32 {
        1.0
    }
}

/// Multiply by `gamma` every `period` steps.
#[derive(Debug, Clone, Copy)]
pub struct StepDecay {
    pub period: usize,
    pub gamma: f32,
}

impl LrSchedule for StepDecay {
    fn factor(&self, step: usize) -> f32 {
        self.gamma.powi((step / self.period.max(1)) as i32)
    }
}

/// Cosine annealing from 1 down to `min_factor` over `total` steps
/// (clamped thereafter).
#[derive(Debug, Clone, Copy)]
pub struct CosineAnnealing {
    pub total: usize,
    pub min_factor: f32,
}

impl LrSchedule for CosineAnnealing {
    fn factor(&self, step: usize) -> f32 {
        let t = (step as f32 / self.total.max(1) as f32).min(1.0);
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
        self.min_factor + (1.0 - self.min_factor) * cos
    }
}

/// Linear warmup over `warmup` steps, then delegate to `inner`.
#[derive(Debug, Clone, Copy)]
pub struct Warmup<S> {
    pub warmup: usize,
    pub inner: S,
}

impl<S: LrSchedule> LrSchedule for Warmup<S> {
    fn factor(&self, step: usize) -> f32 {
        if step < self.warmup {
            (step + 1) as f32 / self.warmup as f32
        } else {
            self.inner.factor(step - self.warmup)
        }
    }
}

/// Drives an optimizer's learning rate from a schedule.
pub struct Scheduler<S> {
    base_lr: f32,
    schedule: S,
    step: usize,
}

impl<S: LrSchedule> Scheduler<S> {
    pub fn new(base_lr: f32, schedule: S) -> Self {
        Self {
            base_lr,
            schedule,
            step: 0,
        }
    }

    /// Set the optimizer's learning rate for the current step, then
    /// advance. Call once per epoch (or per step, by convention).
    pub fn apply(&mut self, opt: &mut dyn crate::Optimizer) {
        opt.set_learning_rate(self.base_lr * self.schedule.factor(self.step));
        self.step += 1;
    }

    pub fn current_step(&self) -> usize {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Optimizer};

    #[test]
    fn step_decay_halves() {
        let s = StepDecay {
            period: 10,
            gamma: 0.5,
        };
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(9), 1.0);
        assert_eq!(s.factor(10), 0.5);
        assert_eq!(s.factor(25), 0.25);
    }

    #[test]
    fn cosine_annealing_endpoints() {
        let s = CosineAnnealing {
            total: 100,
            min_factor: 0.1,
        };
        assert!((s.factor(0) - 1.0).abs() < 1e-6);
        assert!((s.factor(50) - 0.55).abs() < 1e-3); // midpoint
        assert!((s.factor(100) - 0.1).abs() < 1e-6);
        assert!((s.factor(500) - 0.1).abs() < 1e-6); // clamped
    }

    #[test]
    fn warmup_ramps_then_delegates() {
        let s = Warmup {
            warmup: 4,
            inner: StepDecay {
                period: 2,
                gamma: 0.5,
            },
        };
        assert!((s.factor(0) - 0.25).abs() < 1e-6);
        assert!((s.factor(3) - 1.0).abs() < 1e-6);
        assert_eq!(s.factor(4), 1.0); // inner step 0
        assert_eq!(s.factor(6), 0.5); // inner step 2
    }

    #[test]
    fn scheduler_drives_optimizer() {
        let mut opt = Adam::new(1.0);
        let mut sched = Scheduler::new(
            0.8,
            StepDecay {
                period: 1,
                gamma: 0.5,
            },
        );
        sched.apply(&mut opt);
        assert!((opt.learning_rate() - 0.8).abs() < 1e-6);
        sched.apply(&mut opt);
        assert!((opt.learning_rate() - 0.4).abs() < 1e-6);
        assert_eq!(sched.current_step(), 2);
    }

    #[test]
    fn constant_is_identity() {
        assert_eq!(Constant.factor(0), 1.0);
        assert_eq!(Constant.factor(10_000), 1.0);
    }
}
