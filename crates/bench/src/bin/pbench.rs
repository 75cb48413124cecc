//! Partitioned-communication micro-benchmarks (latency, partition-count
//! overhead, overlap efficiency), in the style of the authors' ICPP'22
//! suite. Pass `--quick` for reduced sweeps and `--threads N` to set sweep
//! workers; any other argument prints the usage and exits 2.
use parcomm_bench as b;

fn main() {
    let q = b::sweep_args("pbench");
    b::pbench::run_latency(q).emit();
    b::pbench::run_partition_overhead(q).emit();
    b::pbench::run_overlap(q).emit();
}
