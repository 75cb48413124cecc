//! # parcomm-recover — self-healing partitioned epochs
//!
//! The recovery escalation ladder for partitioned communication, bottom
//! rung to top:
//!
//! 1. **Put retry** (`ucxsim`) — transient wire failures retried with
//!    doubling backoff, invisible above UCX;
//! 2. **Re-striping** (`netsim` routing) — a dark NIC's stripes re-spread
//!    over the surviving rails;
//! 3. **Kernel-Copy → PE fallback** (`core`) — a revoked IPC mapping
//!    demotes device puts to Progression-Engine posts per `MPIX_Pready`;
//! 4. **Lease takeover** (`mpisim` + `core`) — a progression engine that
//!    stops heartbeating past its lease is declared dead from *sim time*
//!    (never the wall clock) and the blocked host wait drains its queue
//!    exactly once;
//! 5. **Epoch replay** (`core`) — undelivered partitions are re-put under
//!    a bumped generation tag; stale duplicates from the pre-recovery
//!    generation are discarded idempotently on completion;
//! 6. **Typed surrender** — once `max_replays` replays make no progress,
//!    [`parcomm_mpi::MpiError::Unrecoverable`] surfaces; recovery never hangs and never
//!    panics.
//!
//! Rungs 1–3 shipped with earlier layers; this crate names the whole
//! ladder, carries the policy knobs ([`RecoverPolicy`]) and the post-run
//! survivability report ([`RecoveryReport`]) assembled from the
//! `mpi.recover.*` counters. Chaos runs arm it through
//! `parcomm_fault::chaos::Cell::recover`.
//!
//! **Digest neutrality.** With recovery enabled and zero faults firing,
//! runs are bit-for-bit identical to the pre-recovery stack: the ladder
//! only arms cancellable timers (heap tombstones, skipped without
//! advancing the clock) and bumps pure-atomic counters. The frozen PR-5 /
//! PR-6 digests prove it in `tests/recovery.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use parcomm_mpi::{RecoverConfig, WorldConfig};
use parcomm_obs::MetricsSnapshot;

/// The rungs of the recovery escalation ladder, mildest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscalationLevel {
    /// Nothing fired: the epoch completed on the fast path.
    None,
    /// UCX put retry with backoff absorbed transient wire failures.
    PutRetry,
    /// Stripes re-spread over surviving rails around a dark NIC.
    Restripe,
    /// Kernel Copy demoted to Progression-Engine posts (IPC revocation).
    KernelCopyFallback,
    /// A PE lease expired and the host drained its queue.
    LeaseTakeover,
    /// Undelivered partitions were replayed under a new generation.
    EpochReplay,
    /// The ladder was exhausted: [`parcomm_mpi::MpiError::Unrecoverable`] surfaced.
    Unrecoverable,
}

/// Policy knobs for the ladder's top rungs, applied onto a
/// [`WorldConfig`]. Wraps [`RecoverConfig`] with a builder surface.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoverPolicy {
    config: RecoverConfig,
}

impl RecoverPolicy {
    /// The default policy: 4 replays, 20 ms stall detection, 2 ms PE lease.
    pub fn new() -> Self {
        RecoverPolicy::default()
    }

    /// Cap the number of epoch replays before typed surrender.
    pub fn max_replays(mut self, n: u32) -> Self {
        self.config.max_replays = n;
        self
    }

    /// Zero-progress window (µs) before the ladder engages.
    pub fn detect_us(mut self, us: f64) -> Self {
        self.config.detect_us = us;
        self
    }

    /// PE heartbeat lease (µs); an engine silent longer is declared dead.
    pub fn lease_us(mut self, us: f64) -> Self {
        self.config.lease_us = us;
        self
    }

    /// The underlying [`RecoverConfig`].
    pub fn config(&self) -> RecoverConfig {
        self.config.clone()
    }

    /// Arm this policy on a [`WorldConfig`].
    pub fn apply(&self, cfg: &mut WorldConfig) {
        cfg.recover = Some(self.config.clone());
    }
}

/// Post-run survivability report, read from the `mpi.recover.*` counters.
///
/// Counters are pure atomics, so assembling the report never perturbs the
/// run's digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// PE leases found expired (crash or missed heartbeat).
    pub lease_expired: u64,
    /// Epoch replays issued.
    pub replays: u64,
    /// Stale pre-recovery puts discarded by generation gating.
    pub stale_puts: u64,
    /// Host drains of a dead engine's queue.
    pub host_drains: u64,
}

impl RecoveryReport {
    /// Read the recovery counters out of a run's metrics snapshot.
    pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        let c = |name: &str| metrics.counter(name).unwrap_or(0);
        RecoveryReport {
            lease_expired: c("mpi.recover.lease_expired"),
            replays: c("mpi.recover.replays"),
            stale_puts: c("mpi.recover.stale_puts"),
            host_drains: c("mpi.recover.host_drains"),
        }
    }

    /// True when no ladder rung above put-retry fired.
    pub fn quiet(&self) -> bool {
        self.lease_expired == 0 && self.replays == 0 && self.stale_puts == 0
            && self.host_drains == 0
    }

    /// The highest ladder rung the counters witness. (`PutRetry` and
    /// below are absorbed beneath the counters; a quiet report maps to
    /// [`EscalationLevel::None`].)
    pub fn highest_level(&self) -> EscalationLevel {
        if self.replays > 0 {
            EscalationLevel::EpochReplay
        } else if self.lease_expired > 0 || self.host_drains > 0 {
            EscalationLevel::LeaseTakeover
        } else {
            EscalationLevel::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_levels_are_ordered() {
        assert!(EscalationLevel::PutRetry < EscalationLevel::EpochReplay);
        assert!(EscalationLevel::EpochReplay < EscalationLevel::Unrecoverable);
    }

    #[test]
    fn policy_applies_onto_world_config() {
        let mut cfg = WorldConfig::gh200(1);
        assert!(cfg.recover.is_none());
        RecoverPolicy::new().max_replays(2).detect_us(1e4).lease_us(500.0).apply(&mut cfg);
        let rc = cfg.recover.expect("armed");
        assert_eq!(rc.max_replays, 2);
        assert_eq!(rc.detect_us, 1e4);
        assert_eq!(rc.lease_us, 500.0);
    }

    #[test]
    fn report_reads_counters_and_classifies() {
        let r = RecoveryReport::default();
        assert!(r.quiet());
        assert_eq!(r.highest_level(), EscalationLevel::None);
        let r = RecoveryReport { replays: 2, lease_expired: 1, ..Default::default() };
        assert_eq!(r.highest_level(), EscalationLevel::EpochReplay);
        let r = RecoveryReport { host_drains: 1, ..Default::default() };
        assert_eq!(r.highest_level(), EscalationLevel::LeaseTakeover);
    }
}
