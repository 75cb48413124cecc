//! Device-side fault model: delayed and lost kernel emissions.
//!
//! An *emission* is a timed device-visible side effect a kernel schedules
//! mid-window — in the partitioned runtime these are the `MPIX_Pready`
//! device flag writes the progression engine (or the kernel-copy chain)
//! observes. Injecting faults here models a GPU whose memory-system flag
//! writes land late (write-combining / ordering stalls) or never become
//! host-visible (the lost-wake hazard the GPU-triggering literature warns
//! about).
//!
//! Decisions are **counter-based**, not randomized: every N-th emission on
//! the armed GPU is delayed/lost. The kernel launch order is deterministic,
//! so the same config always faults the same emissions — no RNG involved,
//! nothing perturbed when unarmed.
//!
//! A *delayed* emission is survivable: the flag lands late, downstream
//! timing shifts, numerics are untouched. A *lost* emission is unsurvivable
//! by design: the corresponding partition never arrives and the receive-side
//! watchdog surfaces a typed timeout.

use std::sync::atomic::{AtomicBool, Ordering};

use parcomm_sim::Mutex;

/// Counter-based emission fault schedule. `0` disables a class.
#[derive(Debug, Clone, PartialEq)]
pub struct EmissionFaultConfig {
    /// Delay every N-th emission (0 = never).
    pub delay_every: u64,
    /// How late a delayed emission lands (µs).
    pub delay_us: f64,
    /// Lose every N-th emission entirely (0 = never).
    pub lose_every: u64,
}

impl Default for EmissionFaultConfig {
    fn default() -> Self {
        EmissionFaultConfig { delay_every: 0, delay_us: 25.0, lose_every: 0 }
    }
}

/// What happens to one emission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EmissionFate {
    /// Scheduled at its natural offset.
    Normal,
    /// Scheduled late by the carried extra microseconds.
    Delayed(f64),
    /// Never scheduled.
    Lost,
}

/// Armed per-GPU fault state.
#[derive(Debug)]
pub(crate) struct EmissionFaults {
    cfg: EmissionFaultConfig,
    /// Emissions classified so far on this GPU (across all its streams).
    counter: u64,
}

impl EmissionFaults {
    pub(crate) fn new(cfg: EmissionFaultConfig) -> Self {
        EmissionFaults { cfg, counter: 0 }
    }

    /// Classify the next emission. Lose takes precedence over delay when
    /// both divide the counter.
    pub(crate) fn classify(&mut self) -> EmissionFate {
        self.counter += 1;
        if self.cfg.lose_every > 0 && self.counter.is_multiple_of(self.cfg.lose_every) {
            return EmissionFate::Lost;
        }
        if self.cfg.delay_every > 0 && self.counter.is_multiple_of(self.cfg.delay_every) {
            return EmissionFate::Delayed(self.cfg.delay_us);
        }
        EmissionFate::Normal
    }
}

/// One of a GPU's emission fault schedules, shared by all its streams.
/// Until one is armed it classifies every emission [`EmissionFate::Normal`]
/// on one flag read, without taking the lock.
#[derive(Debug, Default)]
pub(crate) struct EmissionSchedule {
    armed: AtomicBool,
    faults: Mutex<Option<EmissionFaults>>,
}

impl EmissionSchedule {
    /// Arm (or re-arm) the schedule.
    pub(crate) fn arm(&self, cfg: EmissionFaultConfig) {
        *self.faults.lock() = Some(EmissionFaults::new(cfg));
        self.armed.store(true, Ordering::Release);
    }

    /// Classify the next emission.
    pub(crate) fn classify(&self) -> EmissionFate {
        if !self.armed.load(Ordering::Acquire) {
            return EmissionFate::Normal;
        }
        self.faults.lock().as_mut().map_or(EmissionFate::Normal, EmissionFaults::classify)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_schedule_is_deterministic() {
        let cfg = EmissionFaultConfig { delay_every: 3, delay_us: 10.0, lose_every: 4 };
        let fates = |cfg: &EmissionFaultConfig| {
            let mut f = EmissionFaults::new(cfg.clone());
            (0..12).map(|_| f.classify()).collect::<Vec<_>>()
        };
        let a = fates(&cfg);
        assert_eq!(a, fates(&cfg));
        // counter 3, 6, 9 delayed; 4, 8, 12 lost; 12 not reached twice.
        assert_eq!(a[2], EmissionFate::Delayed(10.0));
        assert_eq!(a[3], EmissionFate::Lost);
        assert_eq!(a[11], EmissionFate::Lost, "lose wins when both divide");
    }
}
