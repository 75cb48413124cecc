//! # parcomm-bench — experiment harnesses
//!
//! One module per table/figure of the paper's evaluation (§VI); each has a
//! `run(quick) -> Experiment` entry point and a thin binary wrapper in
//! `src/bin/`. `reproduce_all` runs everything and `EXPERIMENTS.md`
//! records the outputs. Set `PARCOMM_RESULTS_DIR` to also write JSON.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig02;
pub mod fig03;
pub mod fig0405;
pub mod fig0607;
pub mod fig0809;
pub mod fig1011;
pub mod mechanisms;
pub mod mux;
pub mod obsrun;
pub mod p2p;
pub mod pbench;
pub mod report;
pub mod scaling;
pub mod stats;
pub mod striping;
pub mod table1;
pub mod world;

pub use report::{
    arg_flag, arg_value, check_args, fault_seed, list_arg, mechanism, metrics_out, quick_mode,
    sweep_args, threads, trace_out, usage_error, Experiment,
};
