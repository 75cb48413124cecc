//! Seed-sweep determinism runners.
//!
//! The reproducibility contract of the simulator is: a `(program, seed)`
//! pair fully determines the trace. These helpers turn that contract into
//! assertions:
//!
//! - [`assert_deterministic`] — run a program twice per seed and require
//!   bit-identical digests (same seed ⇒ same trace);
//! - [`assert_seed_sensitive`] — require that different seeds actually
//!   produce different digests (the program consumes randomness at all —
//!   a vacuous determinism test would otherwise pass);
//! - [`assert_all_equal`] — metamorphic invariants: program variants that
//!   must agree on a result (e.g. any partition-count permutation reduces
//!   to the same values).
//!
//! The per-seed runners fan out over `parcomm_sweep::SweepSpec`: each seed
//! is one sweep cell, executed on `--threads N` workers (default:
//! available parallelism). Results are reassembled in
//! seed order, so the returned digests — and any assertion failure — are
//! independent of the worker count.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

use parcomm_sweep::SweepSpec;

/// Run `program` twice for every seed and assert that both runs return the
/// same digest. Returns the per-seed digests for further checks (e.g.
/// feeding [`assert_seed_sensitive`] without re-running).
///
/// `program` receives the seed and returns any comparable observation —
/// typically a [`crate::digest::run_digest`] of the simulation, but raw
/// output vectors work too. Seeds run in parallel (see the module docs),
/// so the program must be `Fn + Send + Sync` rather than `FnMut`.
pub fn assert_deterministic<T, F>(seeds: &[u64], program: F) -> Vec<T>
where
    T: PartialEq + Debug + Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    assert_deterministic_threaded(seeds, parcomm_sweep::threads(), program)
}

/// [`assert_deterministic`] with an explicit sweep worker count.
pub fn assert_deterministic_threaded<T, F>(seeds: &[u64], threads: usize, program: F) -> Vec<T>
where
    T: PartialEq + Debug + Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    assert!(!seeds.is_empty(), "assert_deterministic: no seeds given");
    let program = Arc::new(program);
    let mut spec = SweepSpec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let program = program.clone();
        spec.cell(format!("{i}:seed={seed:#x}"), move || {
            let first = program(seed);
            let second = program(seed);
            assert_eq!(
                first, second,
                "seed {seed:#x}: two runs of the same program diverged — \
                 the (program, seed) determinism contract is broken"
            );
            first
        });
    }
    spec.run(threads).into_values().expect("determinism sweep")
}

/// Assert that not all seeds map to the same digest. Guards against a
/// vacuously-deterministic program (one that never consumes simulation
/// randomness would trivially pass [`assert_deterministic`]).
pub fn assert_seed_sensitive<T: PartialEq + Debug>(seeds: &[u64], digests: &[T]) {
    assert_eq!(seeds.len(), digests.len(), "seed/digest length mismatch");
    assert!(
        seeds.len() >= 2,
        "assert_seed_sensitive: need at least two seeds"
    );
    let all_same = digests.iter().all(|d| *d == digests[0]);
    assert!(
        !all_same,
        "all {} seeds produced the identical digest {:?} — the program does \
         not consume simulation randomness, so this determinism test is vacuous",
        seeds.len(),
        digests[0]
    );
}

/// One-call convenience: determinism plus seed sensitivity over `seeds`.
pub fn assert_deterministic_and_seed_sensitive<T, F>(seeds: &[u64], program: F) -> Vec<T>
where
    T: PartialEq + Debug + Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    assert_deterministic_and_seed_sensitive_threaded(seeds, parcomm_sweep::threads(), program)
}

/// [`assert_deterministic_and_seed_sensitive`] with an explicit sweep
/// worker count.
pub fn assert_deterministic_and_seed_sensitive_threaded<T, F>(
    seeds: &[u64],
    threads: usize,
    program: F,
) -> Vec<T>
where
    T: PartialEq + Debug + Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    let digests = assert_deterministic_threaded(seeds, threads, program);
    assert_seed_sensitive(seeds, &digests);
    digests
}

/// Metamorphic invariant: every labelled variant must produce an equal
/// value. Reports *which* variants disagree on failure.
///
/// ```
/// use parcomm_testkit::sweep::assert_all_equal;
/// assert_all_equal([
///     ("2 partitions", 10u64),
///     ("5 partitions", 10u64),
/// ]);
/// ```
pub fn assert_all_equal<T, I>(variants: I)
where
    T: PartialEq + Debug,
    I: IntoIterator<Item = (&'static str, T)>,
{
    let collected: Vec<(&'static str, T)> = variants.into_iter().collect();
    assert!(
        collected.len() >= 2,
        "assert_all_equal: need at least two variants"
    );
    let (base_label, base) = &collected[0];
    let mut disagreements: BTreeMap<&'static str, &T> = BTreeMap::new();
    for (label, value) in &collected[1..] {
        if value != base {
            disagreements.insert(label, value);
        }
    }
    assert!(
        disagreements.is_empty(),
        "metamorphic invariant violated: baseline '{base_label}' = {base:?}, \
         but {disagreements:?} disagree"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn deterministic_program_passes() {
        let digests =
            assert_deterministic_and_seed_sensitive(&[1, 2, 3], |seed| seed.wrapping_mul(0x9E37));
        assert_eq!(digests.len(), 3);
    }

    #[test]
    fn nondeterministic_program_is_caught() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let flip = Arc::new(AtomicU64::new(0));
        let f2 = flip.clone();
        let r = catch_unwind(AssertUnwindSafe(|| {
            assert_deterministic(&[7], move |seed| {
                seed + f2.fetch_add(1, Ordering::SeqCst) + 1
            });
        }));
        assert!(r.is_err());
    }

    #[test]
    fn threaded_runner_matches_serial_order() {
        let seeds: Vec<u64> = (0..16).map(|i| 0x90 + i).collect();
        let serial =
            assert_deterministic_threaded(&seeds, 1, |seed| seed.wrapping_mul(0x9E37));
        let parallel =
            assert_deterministic_threaded(&seeds, 8, |seed| seed.wrapping_mul(0x9E37));
        assert_eq!(serial, parallel, "digest order must not depend on the worker count");
    }

    #[test]
    fn vacuous_determinism_is_caught() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            assert_deterministic_and_seed_sensitive(&[1, 2, 3], |_seed| 42u64);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn metamorphic_disagreement_names_the_variant() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            assert_all_equal([("a", 1), ("b", 1), ("c", 2)]);
        }));
        let err = r.expect_err("must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains('c'), "{msg}");
    }
}
