//! The bounded blocking wait behind every partitioned `MPI_Wait` and
//! handshake when [`parcomm_mpi::WorldConfig::wait_watchdog_us`] is armed.

use std::future::Future;
use std::pin::Pin;

use parcomm_mpi::{MpiError, MpiWorld};
use parcomm_sim::SimDuration;

/// Run `wait` bounded by `timeout_us`: it gets the timeout and yields
/// `None` if the timer fires first. Counts the arm, and a fire, on the
/// world's `mpi.watchdog.*` counters; a fire becomes the error `on_fire`
/// builds. The future is boxed so the unbounded default path of every
/// caller keeps the small state machine it has without a watchdog.
pub(crate) fn bounded<'a, T, F>(
    world: &'a MpiWorld,
    timeout_us: f64,
    wait: impl FnOnce(SimDuration) -> F + 'a,
    on_fire: impl FnOnce() -> MpiError + 'a,
) -> Pin<Box<impl Future<Output = Result<T, MpiError>> + 'a>>
where
    F: Future<Output = Option<T>> + 'a,
{
    Box::pin(async move {
        world.instruments().watchdog_arms.inc();
        match wait(SimDuration::from_micros_f64(timeout_us)).await {
            Some(v) => Ok(v),
            None => {
                world.instruments().watchdog_fires.inc();
                Err(on_fire())
            }
        }
    })
}
