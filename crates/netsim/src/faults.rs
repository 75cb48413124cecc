//! Fabric-level fault model: transient transfer drops, latency spikes, and
//! NIC outages.
//!
//! The fabric is fault-free by default; [`crate::Fabric::arm_faults`] arms a
//! [`NetFaultConfig`]. Every fault decision is drawn from a dedicated
//! [`SimRng`] seeded by the config — never from the simulation's main RNG —
//! so arming faults perturbs neither the fault-free event stream nor the
//! jitter sequence of unrelated components, and the same (sim seed, fault
//! config) pair always reproduces the identical faulted trace.
//!
//! Semantics:
//!
//! - **Transient drops** (`drop_prob`): the transfer's first wire attempt is
//!   lost and retransmitted after `retransmit_delay_us`; drops can repeat
//!   (geometric, capped at [`MAX_RETRANSMITS`]). Data still arrives — the
//!   fault degrades latency, never integrity, matching a reliable transport
//!   (IB RC / UCX) over a lossy wire.
//! - **Latency spikes** (`spike_prob`/`spike_us`): congestion-style tail
//!   latency added to the arrival time.
//! - **NIC outages** ([`NicOutage`]): a (node, nic) pair is down during a
//!   virtual-time window. Routing steers single-rail messages to a surviving
//!   NIC and multi-rail striping re-stripes over the surviving rails
//!   (degraded bandwidth, not failure). Only when *every* NIC on a required
//!   node is down does [`crate::Fabric::try_transfer`] return
//!   [`NetError::NoNicAvailable`] — the typed surface the UCX retry layer
//!   recovers from.

use parcomm_sim::{SimRng, SimTime};

/// Cap on consecutive retransmits of one transfer; beyond this the drop
/// sequence ends (the geometric tail is negligible and an unbounded loop
/// would let `drop_prob = 1.0` hang the draw).
pub const MAX_RETRANSMITS: u32 = 8;

/// A NIC down-window: `(node, nic)` is unusable for transfers starting in
/// `[from_us, until_us)` (virtual microseconds). Use `f64::INFINITY` for a
/// permanent outage.
#[derive(Debug, Clone, PartialEq)]
pub struct NicOutage {
    /// Node whose NIC fails.
    pub node: u16,
    /// NIC index on that node.
    pub nic: u8,
    /// Start of the outage window (virtual µs).
    pub from_us: f64,
    /// End of the outage window (virtual µs), exclusive.
    pub until_us: f64,
}

impl NicOutage {
    /// True if the outage covers virtual instant `at`.
    pub fn covers(&self, at: SimTime) -> bool {
        let t = at.as_micros_f64();
        t >= self.from_us && t < self.until_us
    }
}

/// Deterministic fabric fault schedule. All-zero probabilities and no
/// outages (the [`Default`]) injects nothing even when armed.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultConfig {
    /// Seed for the dedicated fault RNG.
    pub seed: u64,
    /// Per-attempt probability that a transfer's wire attempt is dropped.
    pub drop_prob: f64,
    /// Latency penalty per retransmitted attempt (µs).
    pub retransmit_delay_us: f64,
    /// Per-transfer probability of a congestion latency spike.
    pub spike_prob: f64,
    /// Spike magnitude (µs).
    pub spike_us: f64,
    /// NIC down-windows.
    pub nic_outages: Vec<NicOutage>,
}

impl Default for NetFaultConfig {
    fn default() -> Self {
        NetFaultConfig {
            seed: 0,
            drop_prob: 0.0,
            retransmit_delay_us: 5.0,
            spike_prob: 0.0,
            spike_us: 0.0,
            nic_outages: Vec::new(),
        }
    }
}

/// Typed fabric failure: no recovery possible at the fabric layer.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Every NIC on `node` is inside an outage window at `at_us`; a
    /// cross-node transfer cannot be routed.
    NoNicAvailable {
        /// The node with no usable NIC.
        node: u16,
        /// Virtual time (µs) the transfer tried to start.
        at_us: f64,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoNicAvailable { node, at_us } => {
                write!(f, "no NIC available on node {node} at t={at_us:.1}us (all rails down)")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Armed fault state: config plus the dedicated deterministic RNG.
pub(crate) struct NetFaults {
    pub(crate) cfg: NetFaultConfig,
    pub(crate) rng: SimRng,
}

impl NetFaults {
    pub(crate) fn new(cfg: NetFaultConfig) -> Self {
        let rng = SimRng::seeded(cfg.seed);
        NetFaults { cfg, rng }
    }

    /// True if `(node, nic)` is usable for a transfer starting at `at`.
    pub(crate) fn nic_up(&self, node: u16, nic: u8, at: SimTime) -> bool {
        !self
            .cfg
            .nic_outages
            .iter()
            .any(|o| o.node == node && o.nic == nic && o.covers(at))
    }

    /// Extra latency (µs) injected into one transfer: retransmits + spike.
    pub(crate) fn draw_penalty_us(&mut self) -> f64 {
        let mut us = 0.0;
        if self.cfg.drop_prob > 0.0 {
            let mut attempts = 0;
            while attempts < MAX_RETRANSMITS && self.rng.uniform() < self.cfg.drop_prob {
                us += self.cfg.retransmit_delay_us;
                attempts += 1;
            }
        }
        if self.cfg.spike_prob > 0.0 && self.rng.uniform() < self.cfg.spike_prob {
            us += self.cfg.spike_us;
        }
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm_sim::SimDuration;

    #[test]
    fn outage_window_is_half_open() {
        let o = NicOutage { node: 1, nic: 0, from_us: 10.0, until_us: 20.0 };
        let t = |us: f64| SimTime::ZERO + SimDuration::from_micros_f64(us);
        assert!(!o.covers(t(9.9)));
        assert!(o.covers(t(10.0)));
        assert!(o.covers(t(19.9)));
        assert!(!o.covers(t(20.0)));
    }

    #[test]
    fn penalty_draws_are_seed_deterministic() {
        let cfg = NetFaultConfig {
            seed: 42,
            drop_prob: 0.3,
            retransmit_delay_us: 5.0,
            spike_prob: 0.2,
            spike_us: 50.0,
            ..NetFaultConfig::default()
        };
        let draws = |cfg: &NetFaultConfig| {
            let mut f = NetFaults::new(cfg.clone());
            (0..64).map(|_| f.draw_penalty_us()).collect::<Vec<_>>()
        };
        assert_eq!(draws(&cfg), draws(&cfg));
        let other = NetFaultConfig { seed: 43, ..cfg.clone() };
        assert_ne!(draws(&cfg), draws(&other));
    }

    #[test]
    fn certain_drop_is_bounded_by_retransmit_cap() {
        let cfg = NetFaultConfig {
            seed: 7,
            drop_prob: 1.0,
            retransmit_delay_us: 5.0,
            ..NetFaultConfig::default()
        };
        let mut f = NetFaults::new(cfg);
        assert_eq!(f.draw_penalty_us(), MAX_RETRANSMITS as f64 * 5.0);
    }
}
