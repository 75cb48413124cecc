//! The one way a harness builds a simulated world, runs its ranks and
//! reads back what they measured.

use std::sync::Arc;

use parcomm_mpi::{MpiWorld, Rank, WorldConfig};
use parcomm_sim::{Ctx, Mutex, SimError, SimReport, Simulation};

/// A fresh seeded simulation with an MPI world on it. Set up anything the
/// rank bodies share (NCCL communicators, metrics, tracing) through the
/// public fields, then [`World::run`] it.
pub struct World {
    /// The simulation the world runs on.
    pub sim: Simulation,
    /// The MPI world.
    pub mpi: MpiWorld,
}

impl World {
    /// A world of `config` on a simulation seeded with `seed`.
    pub fn new(seed: u64, config: WorldConfig) -> World {
        let sim = Simulation::with_seed(seed);
        let mpi = MpiWorld::new(&sim, config);
        World { sim, mpi }
    }

    /// A GH200 world of `nodes` nodes on a simulation seeded with `seed`.
    pub fn gh200(seed: u64, nodes: u16) -> World {
        World::new(seed, WorldConfig::gh200(nodes))
    }

    /// Run `body` on every rank and drive the simulation to completion.
    /// Returns what the rank bodies reported (each `Some`, in the order the
    /// ranks finished) and the simulation report.
    pub fn try_run<T, F>(mut self, body: F) -> Result<(Vec<T>, SimReport), SimError>
    where
        T: Send + 'static,
        F: Fn(&mut Ctx, &mut Rank) -> Option<T> + Send + Sync + 'static,
    {
        let out = Arc::new(Mutex::new(Vec::new()));
        let reports = out.clone();
        self.mpi.run_ranks(&mut self.sim, move |ctx, rank| {
            if let Some(v) = body(ctx, rank) {
                reports.lock().push(v);
            }
        });
        let report = self.sim.run()?;
        let values = std::mem::take(&mut *out.lock());
        Ok((values, report))
    }

    /// [`World::try_run`] for the common case: one rank reports a value,
    /// which is returned. Panics, naming `what`, if the simulation fails or
    /// no rank reported.
    pub fn run<T, F>(self, what: &str, body: F) -> T
    where
        T: Send + 'static,
        F: Fn(&mut Ctx, &mut Rank) -> Option<T> + Send + Sync + 'static,
    {
        let (mut values, _) = self
            .try_run(body)
            .unwrap_or_else(|e| panic!("{what}: {e:?}"));
        values
            .pop()
            .unwrap_or_else(|| panic!("{what}: no rank reported a result"))
    }
}
