//! The data-parallel deep-learning proxy kernel (paper §VI-D2).
//!
//! Each rank holds a replica of a model and trains on its own shard: a
//! CUDA binary-cross-entropy kernel computes per-element gradients, which
//! are then synchronized with an allreduce. Three communication models are
//! compared, as in Figs. 10/11:
//!
//! - `Traditional` — BCE kernel → `cudaStreamSynchronize` →
//!   `MPI_Allreduce` (the host-staged production path);
//! - `Partitioned` — persistent `MPIX_Pallreduce`; the BCE kernel calls
//!   the device `MPIX_Pready`, and the measured region includes
//!   `MPI_Start` + `MPIX_Pbuf_prepare` as the paper specifies ("as this
//!   would be present in a training loop");
//! - `Nccl` — BCE kernel → `ncclAllReduce` on the stream.

use parcomm_coll::{pallreduce_init, PcollRequest};
use parcomm_gpu::KernelSpec;
use parcomm_mpi::{MpiError, Rank};
use parcomm_nccl::{NcclComm, NcclConfig};
use parcomm_sim::{Ctx, SimDuration};

/// Communication model for gradient synchronization.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DlModel {
    /// Kernel + sync + host-staged `MPI_Allreduce`.
    Traditional,
    /// Partitioned allreduce with device-side `MPIX_Pready`.
    Partitioned,
    /// `ncclAllReduce`.
    Nccl,
}

/// Configuration of the DL proxy.
#[derive(Clone, Debug)]
pub struct DlConfig {
    /// Gradient elements per rank (the paper scales this with the kernel
    /// grid: each CUDA thread contributes 8 bytes).
    pub elements: usize,
    /// Collective user partitions in the partitioned model.
    pub partitions: usize,
    /// Training steps to run.
    pub steps: usize,
    /// Run the BCE arithmetic (tests) or cost-only (sweeps).
    pub functional: bool,
    /// Communication model.
    pub model: DlModel,
}

/// Result of a DL run.
#[derive(Clone, Debug)]
pub struct DlResult {
    /// Virtual time for all steps.
    pub elapsed: SimDuration,
    /// Mean time per training step.
    pub per_step: SimDuration,
    /// Final loss value (functional runs; 0.0 otherwise).
    pub loss: f64,
}

/// The BCE forward+backward: predictions come from a logistic activation;
/// the gradient of the loss w.r.t. the activation input is `(p - y) / n`.
fn bce_gradient(pred: &[f64], target: &[f64], grad: &mut [f64]) -> f64 {
    let n = pred.len() as f64;
    let mut loss = 0.0;
    for ((g, p), y) in grad.iter_mut().zip(pred).zip(target) {
        let p = p.clamp(1e-7, 1.0 - 1e-7);
        loss -= y * p.ln() + (1.0 - y) * (1.0 - p).ln();
        *g = (p - y) / n;
    }
    loss / n
}

/// The BCE kernel's launch geometry for `elements` gradient entries.
fn bce_spec(elements: usize) -> KernelSpec {
    KernelSpec::new("bce", (elements as u32).div_ceil(1024).max(1), 1024)
        .with_memory_traffic(16, 8)
        .with_flops(12.0) // ln + div + sub per element
}

/// Run `cfg.steps` data-parallel training steps on this rank; all ranks
/// must participate. `nccl` must be `Some` for the NCCL model.
///
/// Fault-free runs cannot fail; with fault injection armed (see
/// `parcomm-fault`) a disrupted allreduce surfaces as a typed
/// [`MpiError`] instead of a hang.
pub fn run_dl(
    ctx: &mut Ctx,
    rank: &Rank,
    cfg: &DlConfig,
    nccl: Option<&NcclComm>,
) -> Result<DlResult, MpiError> {
    let n = cfg.elements;
    let gpu = rank.gpu();
    let stream = gpu.create_stream();
    let grad = gpu.alloc_global(n * 8);
    let pred = gpu.alloc_global(n * 8);
    let target = gpu.alloc_global(n * 8);

    if cfg.functional {
        // Deterministic per-rank shard: predictions and labels derived from
        // the element index and rank.
        let r = rank.rank() as f64;
        let preds: Vec<f64> =
            (0..n).map(|i| 0.1 + 0.8 * ((i as f64 + r) % 10.0) / 10.0).collect();
        let targets: Vec<f64> = (0..n).map(|i| ((i + rank.rank()) % 2) as f64).collect();
        pred.write_f64_slice(0, &preds);
        target.write_f64_slice(0, &targets);
    }

    let coll: Option<PcollRequest> = if cfg.model == DlModel::Partitioned {
        Some(pallreduce_init(ctx, rank, &grad, cfg.partitions, &stream, 77)?)
    } else {
        None
    };
    if cfg.model == DlModel::Nccl {
        assert!(nccl.is_some(), "NCCL model requires a communicator");
    }

    rank.barrier(ctx);
    let t0 = ctx.now();
    let mut loss = 0.0f64;

    for _step in 0..cfg.steps {
        match cfg.model {
            DlModel::Traditional => {
                let (p2, t2, g2) = (pred.clone(), target.clone(), grad.clone());
                let functional = cfg.functional;
                stream.launch(ctx, bce_spec(n), move |_d| {
                    if functional {
                        let p = p2.read_f64_slice(0, n);
                        let t = t2.read_f64_slice(0, n);
                        let mut g = vec![0.0; n];
                        bce_gradient(&p, &t, &mut g);
                        g2.write_f64_slice(0, &g);
                    }
                });
                stream.synchronize(ctx);
                rank.allreduce_hoststaged_f64(ctx, &grad, 0, n, &stream);
            }
            DlModel::Partitioned => {
                let coll = coll.as_ref().expect("initialized above");
                // The paper includes MPI_Start and MPIX_Pbuf_prepare in the
                // measured region: they recur every training step.
                coll.start(ctx)?;
                coll.pbuf_prepare(ctx)?;
                let (p2, t2, g2) = (pred.clone(), target.clone(), grad.clone());
                let functional = cfg.functional;
                let coll2 = coll.clone();
                stream.launch(ctx, bce_spec(n), move |d| {
                    if functional {
                        let p = p2.read_f64_slice(0, n);
                        let t = t2.read_f64_slice(0, n);
                        let mut g = vec![0.0; n];
                        bce_gradient(&p, &t, &mut g);
                        g2.write_f64_slice(0, &g);
                    }
                    coll2.pready_device_all(d);
                });
                coll.wait(ctx)?;
            }
            DlModel::Nccl => {
                let comm = nccl.expect("checked above");
                let (p2, t2, g2) = (pred.clone(), target.clone(), grad.clone());
                let functional = cfg.functional;
                stream.launch(ctx, bce_spec(n), move |_d| {
                    if functional {
                        let p = p2.read_f64_slice(0, n);
                        let t = t2.read_f64_slice(0, n);
                        let mut g = vec![0.0; n];
                        bce_gradient(&p, &t, &mut g);
                        g2.write_f64_slice(0, &g);
                    }
                });
                let done = comm.all_reduce_f64(ctx, rank.rank(), &grad, 0, n, &stream);
                ctx.wait(&done);
            }
        }
        if cfg.functional {
            // Loss proxy: mean absolute synchronized gradient.
            loss = grad.reduce_sum_f64(0, n).abs() / n as f64;
        }
    }

    let elapsed = ctx.now().since(t0);
    Ok(DlResult { elapsed, per_step: elapsed / cfg.steps as u64, loss })
}

/// Build the NCCL communicator for a world (ring in rank order).
pub fn nccl_for_world(world: &parcomm_mpi::MpiWorld) -> NcclComm {
    let ring = (0..world.size()).map(|r| world.gpu_of(r).location()).collect();
    NcclComm::new(world.fabric().clone(), ring, NcclConfig::default())
}

#[cfg(test)]
mod tests {
    use super::bce_gradient;

    #[test]
    fn bce_gradient_signs_and_loss() {
        let pred = [0.9, 0.1, 0.5];
        let target = [1.0, 0.0, 1.0];
        let mut grad = [0.0; 3];
        let loss = bce_gradient(&pred, &target, &mut grad);
        assert!(loss > 0.0);
        assert!(grad[0] < 0.0, "confident-correct positive: push up");
        assert!(grad[1] > 0.0, "confident-correct negative: push down");
        assert!(grad[2] < 0.0);
    }

    #[test]
    fn bce_gradient_is_clamped() {
        let pred = [0.0, 1.0];
        let target = [1.0, 0.0];
        let mut grad = [0.0; 2];
        let loss = bce_gradient(&pred, &target, &mut grad);
        assert!(loss.is_finite());
        assert!(grad.iter().all(|g| g.is_finite()));
    }
}
