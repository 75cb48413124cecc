//! # parcomm-obs — observability over the simulated stack
//!
//! The analysis side of `parcomm-sim`'s structured span tracing, plus a
//! first-party metrics registry. Everything here is hermetic (no external
//! dependencies) and operates on data the simulation already produced —
//! nothing in this crate touches the virtual clock, so observability can
//! never perturb a run.
//!
//! Components:
//!
//! - [`metrics`]: counters, gauges, and log2-bucket histograms behind a
//!   [`MetricsRegistry`], snapshotable to hand-rolled JSON. Every layer
//!   counts into the registry it was built with; an event costs a few
//!   relaxed atomic adds.
//! - [`mod@occupancy`]: windowed per-category span aggregation (the
//!   `gap_decomposition` table).
//! - [`chrome`]: Chrome `trace_event` JSON exporter — one track per
//!   rank × layer, causal edges as flow events; loadable in Perfetto.
//! - [`folded`]: folded-stack flamegraph text built from causal chains.
//! - [`critical`]: a critical-path analyzer walking the causal graph
//!   backward from the last completion.
//! - [`json`]: a minimal first-party JSON parser used to validate exported
//!   traces in tests and CI.
//! - [`layers`]: the span-category → pipeline-layer mapping shared by the
//!   exporters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod critical;
pub mod folded;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod occupancy;

pub use chrome::{chrome_trace_json, chrome_trace_json_with_counters};
pub use critical::{CriticalPath, CriticalStep};
pub use folded::folded_stacks;
pub use json::JsonValue;
pub use layers::{is_causal_category, layer_of};
pub use metrics::{
    Counter, Gauge, Histogram, InstrumentBlock, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use occupancy::{occupancy, CategorySummary};
