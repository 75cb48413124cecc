//! `shmem.*` metrics instruments.

use parcomm_obs::{Counter, MetricsRegistry};

/// Metrics of the symmetric-heap backend. Pure atomics — digest-neutral.
#[derive(Debug)]
pub struct ShmemInstruments {
    /// Buffers adopted into the heap (`shmem.binds`).
    pub binds: Counter,
    /// Device-initiated one-sided puts issued (`shmem.puts`).
    pub puts: Counter,
    /// Completion signals delivered (`shmem.signals`).
    pub signals: Counter,
    /// Payload bytes moved by shmem puts (`shmem.bytes`).
    pub bytes: Counter,
    /// Channel sides that requested shmem but were demoted to the
    /// Progression Engine by the route/registration rules
    /// (`shmem.fallbacks`).
    pub fallbacks: Counter,
    /// rkey exchanges a shmem channel did **not** perform: the classic
    /// protocol packs one rkey each for the data and flag regions per
    /// channel, so every shmem channel setup adds 2
    /// (`shmem.rkey_exchanges_avoided`).
    pub rkey_exchanges_avoided: Counter,
    /// Put attempts retried after a fabric routing failure
    /// (`shmem.put_retries`).
    pub put_retries: Counter,
    /// Puts that exhausted their retry budget (`shmem.put_failures`).
    pub put_failures: Counter,
}

impl ShmemInstruments {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        ShmemInstruments {
            binds: registry.counter("shmem.binds"),
            puts: registry.counter("shmem.puts"),
            signals: registry.counter("shmem.signals"),
            bytes: registry.counter("shmem.bytes"),
            fallbacks: registry.counter("shmem.fallbacks"),
            rkey_exchanges_avoided: registry.counter("shmem.rkey_exchanges_avoided"),
            put_retries: registry.counter("shmem.put_retries"),
            put_failures: registry.counter("shmem.put_failures"),
        }
    }
}
