//! # parcomm-mux — multi-tenant channel multiplexing over one `MpiWorld`
//!
//! A large MoE or multi-job deployment opens *thousands* of partitioned
//! channels over a single world. Opening them naively is ruinous twice
//! over: every channel pays the full first-call `MPIX_Pbuf_prepare`
//! handshake (~190 µs on the receive side, Table I), and every completion
//! event pays an O(channels) lookup in any scan-based channel registry.
//! This crate is the service layer that makes channel count cheap:
//!
//! - [`ChannelTable`] — a generational slab mapping dense [`MuxChannelId`]s
//!   to live channels in O(1), with an observable probe counter so tests
//!   can *prove* no operation degenerates into a scan.
//! - **Admission control** ([`MuxService::submit`] /
//!   [`MuxService::tick_async`]) — submissions queue per tenant and are
//!   admitted in deterministic batches; every channel admitted in the
//!   same tick shares one first-call `pbuf_prepare` charge via
//!   [`parcomm_core::pbuf_prepare_batch_async`], the rest paying only the
//!   per-channel batch increment. Over-subscription surfaces as typed
//!   [`AdmissionError`]s (backpressure at the in-flight cap, symmetric-heap
//!   quota exhaustion) instead of deadlocks or latent heap errors.
//! - [`WeightedFair`] — a smooth weighted round-robin apportioning
//!   admission slots, cross-node rail stripes, and shmem heap quota
//!   across tenants. The schedule is a pure function of (weights,
//!   structure): every rank computes the identical grant order, which is
//!   what keeps symmetric ticks deadlock-free and trace digests
//!   byte-identical under any submission shuffle or sweep worker count.
//!
//! The service is async-only: admission, epochs and teardown are
//! `async fn`s over the rank's `Proc`, awaited inside the rank body's
//! one `Ctx::block_on`, so a rank that drives thousands of channels
//! wakes its thread once, when its body completes.
//!
//! Per-tenant goodput/epoch/latency metrics land in the world's
//! [`parcomm_obs::MetricsRegistry`] under `mux.tenant<k>.*` from each
//! tenant's first epoch on — pure atomics, digest-neutral.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod fairness;
mod service;
mod table;

pub use admission::{AdmissionError, ChannelSpec, Direction};
pub use fairness::WeightedFair;
pub use service::{AdmittedChannel, MuxChannel, MuxConfig, MuxService, TenantReport};
pub use table::{ChannelTable, MuxChannelId};
