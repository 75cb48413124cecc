//! Deterministic randomness for the simulation.
//!
//! All stochastic behaviour (timing jitter used to produce the standard
//! deviations reported in Table I, workload initialization, property-test
//! inputs) flows from a single seeded generator owned by the scheduler, so a
//! `(program, seed)` pair fully determines the simulation trace.
//!
//! The generator is an in-tree **xoshiro256\*\*** (Blackman & Vigna) whose
//! 256-bit state is expanded from the `u64` seed with **SplitMix64**, the
//! seeding procedure the xoshiro authors recommend. No external crates are
//! involved (hermetic-build policy), and the output stream for a given seed
//! is frozen: determinism tests hash it, so changing the algorithm is a
//! breaking change to every recorded trace digest.

/// SplitMix64 step: advances `state` and returns the next output. Used only
/// to expand a 64-bit seed into the 256-bit xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulation's random number generator (xoshiro256\*\*, SplitMix64
/// seeded).
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Construct from a seed. Distinct seeds yield uncorrelated streams;
    /// equal seeds yield bit-identical streams.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 never emits four consecutive zeros for any input, so
        // the forbidden all-zero xoshiro state is unreachable.
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The generator whose state is `s` (as [`SimRng::state`] returned it).
    pub(crate) fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }

    /// The generator's state: drawing from [`SimRng::from_state`] of it
    /// continues this generator's stream.
    pub(crate) fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Next raw 64-bit output (the primitive every other sampler builds on).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` with 24 bits of precision (`f32`).
    pub fn uniform_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform integer in `[lo, hi)`, unbiased (rejection sampling).
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_range: empty range");
        let span = hi - lo;
        // Reject draws from the tail that would bias the modulus.
        let limit = u64::MAX - (u64::MAX % span + 1) % span;
        loop {
            let x = self.next_u64();
            if x <= limit {
                return lo + x % span;
            }
        }
    }

    /// Standard normal sample via Box–Muller (no extra dependency).
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1: f64 = 1.0 - self.uniform();
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Fill a slice with uniform values in `[lo, hi)` (workload init).
    pub fn fill_uniform_f64(&mut self, out: &mut [f64], lo: f64, hi: f64) {
        for v in out {
            *v = lo + (hi - lo) * self.uniform();
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(7);
        let mut b = SimRng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::seeded(7);
        let mut b = SimRng::seeded(8);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn matches_reference_xoshiro_vectors() {
        // Known-answer test against the canonical SplitMix64 / xoshiro256**
        // C reference, seed 0: freezes the in-tree implementation (every
        // recorded trace digest depends on this stream).
        let expect_state = [
            0xE220_A839_7B1D_CDAF_u64,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ];
        let mut rng = SimRng::seeded(0);
        assert_eq!(rng.s, expect_state);
        assert_eq!(rng.next_u64(), 0x99EC_5F36_CB75_F2B4);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::seeded(3);
        for _ in 0..10_000 {
            let v = rng.uniform();
            assert!((0.0..1.0).contains(&v), "{v}");
            let w = rng.uniform_f32();
            assert!((0.0..1.0).contains(&w), "{w}");
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seeded(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seeded(1);
        for _ in 0..1000 {
            let v = rng.uniform_range(5, 9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn uniform_range_hits_every_value() {
        let mut rng = SimRng::seeded(9);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[rng.uniform_range(0, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }
}
