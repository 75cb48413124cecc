//! Deterministic parallel chaos campaign over the `parcomm-sweep` engine.
//!
//! One engine with two plan sources. By default it runs the CI grid —
//! eight fault seeds × two rates × stripe counts {1, 4} of the two-node
//! partitioned allreduce; `--coverage` switches to the coverage-guided
//! search. Every cell runs twice and is judged by the same contract. The
//! report — one line per cell, a summary, and the `covered=[…]` point set
//! — is **byte-identical at any worker count**: diff the stdout of a
//! `--threads 1` run against a `--threads 4` run to prove it.
//!
//! Run with `--help` for the flags ([`USAGE`]). An unknown argument, a
//! number that does not parse, `--channels 0` or an unknown mechanism
//! prints the usage and exits 2.
//!
//! Exits non-zero if any cell violates the fault-injection contract.

use parcomm_bench::{arg_flag, arg_value};
use parcomm_core::CopyMechanism;
use parcomm_fault::coverage::TopologyShape;
use parcomm_fault::{run_campaign, run_campaign_with_sink, CampaignConfig, FaultPlan, PlanSource};
use parcomm_mpi::RecoveryReport;
use parcomm_sweep::JsonlSink;

/// The `--help` text: every flag the campaign reads.
const USAGE: &str = "\
usage: chaos_campaign [flags]

  --coverage            plans come from the coverage-guided search instead of
                        the grid: each round synthesizes plans toward fault-class
                        x layer points, and a contract failure is bisected to a
                        minimal failing plan written as JSON under --min-out
  --quick               trim the grid to two seeds, cap the search budget at 12
  --seeds N             the grid's fault-seed count (default 8, 2 with --quick)
  --budget N            the search's cell budget (default 36)
  --recover             arm the recovery escalation ladder (default: armed for
  --no-recover          the search and --fault-plan, off for the grid); the
                        contract adapts, e.g. a PE crash is expected to be a
                        typed failure when recovery is off
  --mechanism pe|kc|shmem
                        the copy mechanism every cell's world negotiates; under
                        shmem the search also targets the shmem-signal fault
                        classes (default pe)
  --channels N          the multiplexed-load axis (canonical 1, 64, 1024): above
                        1 every cell runs the mux-admitted MoE dispatch/combine
                        workload, and covered points gain a cN: qualifier
                        (default 1)
  --shape uniform|ragged|oversub
                        the topology-shape axis: the uniform testbed, a ragged
                        4/2-GPU 2/1-NIC world, or that world at 2:1 rank
                        oversubscription (default uniform)
  --threads N           sweep worker count (default: available parallelism)
  --out PATH            stream completed cells to a resumable JSON-lines sink; a
                        re-run against the same file skips the cells on disk
  --min-out DIR         where minimized failing plans land (default results)
  --fault-plan FILE     skip the campaign: run one FaultPlan from JSON on the
                        cell the campaign's axes give it and report survival
  --help                print this text

Flags that take a value accept --flag VALUE or --flag=VALUE.
PARCOMM_CHAOS_SEED shifts the grid's fault-seed block.
";

/// Flags that take no value.
const SWITCHES: [&str; 5] = ["--help", "--coverage", "--quick", "--recover", "--no-recover"];

/// Flags that take a value.
const VALUED: [&str; 9] = [
    "--seeds",
    "--budget",
    "--channels",
    "--threads",
    "--mechanism",
    "--shape",
    "--out",
    "--min-out",
    "--fault-plan",
];

/// The valued flags whose value is a count.
const COUNTS: [&str; 4] = ["--seeds", "--budget", "--channels", "--threads"];

/// Print `msg` and the usage to stderr and exit 2.
fn usage_error(msg: &str) -> ! {
    parcomm_bench::usage_error("chaos_campaign", USAGE, msg)
}

/// Check the command line before anything runs: an unknown argument or a
/// missing value is a usage error; then `--help` prints the usage and
/// exits 0; then a count that does not parse, a `--channels` of 0 or an
/// unknown mechanism is a usage error.
fn check_args() {
    let valued = parcomm_bench::check_args("chaos_campaign", USAGE, &SWITCHES, &VALUED);
    if arg_flag("--help") {
        print!("{USAGE}");
        std::process::exit(0);
    }
    for (flag, value) in valued {
        let count = value.parse::<u64>();
        if COUNTS.contains(&flag.as_str()) && count.is_err() {
            usage_error(&format!("{flag} {value}: not a non-negative integer"));
        }
        if flag == "--channels" && count == Ok(0) {
            usage_error("--channels 0: expected a count >= 1");
        }
        if flag == "--mechanism" && CopyMechanism::from_short_name(&value).is_none() {
            usage_error(&format!("--mechanism {value}: expected pe|kc|shmem"));
        }
    }
}

/// The campaign the command line describes.
fn config() -> CampaignConfig {
    let quick = parcomm_bench::quick_mode();
    let mut cfg = if arg_flag("--coverage") || arg_value("--fault-plan").is_some() {
        let budget = arg_value("--budget").and_then(|s| s.parse().ok()).unwrap_or(36);
        CampaignConfig::search(if quick { budget.min(12) } else { budget })
    } else {
        CampaignConfig::grid(quick)
    };
    if let PlanSource::Grid { fault_seeds, .. } = &mut cfg.source {
        if let Some(n) = arg_value("--seeds").and_then(|s| s.parse::<u64>().ok()) {
            fault_seeds.end = fault_seeds.start + n;
        }
    }
    if arg_flag("--recover") {
        cfg.recover = true;
    }
    if arg_flag("--no-recover") {
        cfg.recover = false;
    }
    if let Some(m) = parcomm_bench::mechanism().unwrap_or_else(|e| usage_error(&e)) {
        cfg.mechanism = m;
    }
    if let Some(n) = arg_value("--channels").and_then(|s| s.parse().ok()) {
        cfg.channels = n;
    }
    if let Some(s) = arg_value("--shape") {
        cfg.shape = TopologyShape::ALL.into_iter().find(|t| t.key() == s).unwrap_or_else(|| {
            usage_error(&format!("--shape {s}: expected uniform|ragged|oversub"))
        });
    }
    cfg
}

/// `--fault-plan <file>`: reproduce one plan (minimized or hand-written)
/// on the cell the campaign would run it on and report what happened.
fn run_one_plan(cfg: &CampaignConfig, path: &str) -> ! {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("--fault-plan {path}: {e}");
        std::process::exit(2);
    });
    let plan = FaultPlan::from_json_str(&body).unwrap_or_else(|e| {
        eprintln!("--fault-plan {path}: invalid plan: {e}");
        std::process::exit(2);
    });
    let run = cfg.cell(&plan, 1).run(cfg.sim_seed, &plan);
    let report = RecoveryReport::from_metrics(&run.metrics);
    println!(
        "plan {path}: survived={} digest={:#018x} end={:.1}us recover={} {report:?}",
        run.survived(),
        run.digest,
        run.end_time_us,
        cfg.recover
    );
    for (rank, err) in &run.errors {
        println!("  rank {rank}: {err}");
    }
    std::process::exit(if run.survived() { 0 } else { 1 });
}

fn main() {
    check_args();
    let cfg = config();
    if let Some(path) = arg_value("--fault-plan") {
        run_one_plan(&cfg, &path);
    }
    let threads = parcomm_bench::threads();
    let plans = match &cfg.source {
        PlanSource::Grid { fault_seeds, rates, stripes } => format!(
            "{} seeds x {} rates x {} stripe counts",
            fault_seeds.end - fault_seeds.start,
            rates.len(),
            stripes.len()
        ),
        PlanSource::Search { budget, .. } => format!("coverage search, budget {budget}"),
    };
    eprintln!(
        "chaos campaign: {plans} on {threads} worker(s), recovery {}, mechanism {}, channels {}, shape {}",
        if cfg.recover { "armed" } else { "off" },
        cfg.mechanism.short_name(),
        cfg.channels,
        cfg.shape.key()
    );
    let report = match arg_value("--out") {
        Some(path) => {
            let mut sink = JsonlSink::open(&path).expect("open --out sink");
            let restored = sink.len();
            if restored > 0 {
                eprintln!("resuming: {restored} cell(s) restored from {path}");
            }
            run_campaign_with_sink(&cfg, threads, &mut sink).expect("campaign sink")
        }
        None => run_campaign(&cfg, threads),
    };
    print!("{}", report.render());
    if !report.failures.is_empty() {
        let dir = arg_value("--min-out").unwrap_or_else(|| "results".to_string());
        std::fs::create_dir_all(&dir).expect("create --min-out dir");
        for f in &report.failures {
            let slug: String = f
                .target
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let path = format!("{dir}/chaos_min_{slug}.json");
            std::fs::write(&path, f.to_json_string()).expect("write minimized plan");
            eprintln!("minimized failing plan ({} shrink steps) -> {path}", f.shrink_steps);
        }
        eprintln!(
            "chaos campaign: {} of {} cells FAILED the contract",
            report.failures.len(),
            report.outcomes.len()
        );
        std::process::exit(1);
    }
    println!(
        "chaos campaign: {} cells ok, {} coverage points",
        report.outcomes.len(),
        report.covered.len()
    );
}
