//! Smooth weighted round-robin across tenants.
//!
//! One arbiter shape serves every resource the mux apportions: admission
//! slots within a tick, per-epoch drain grants, cross-node rail stripes,
//! and symmetric-heap quota. The scheduler is *smooth* (grants interleave
//! rather than burst: weights `[2,1]` yield A B A A B A…, never A A A A B
//! B) and *deterministic* — the grant sequence is a pure function of the
//! weights and the eligibility pattern, with ties broken by lowest tenant
//! index. Every rank computing the same inputs computes the same
//! sequence, which the service layer relies on for cross-rank agreement.

/// Smooth weighted round-robin arbiter (the nginx `smooth_weight`
/// algorithm) plus a largest-remainder integer apportioner for one-shot
/// capacity splits.
#[derive(Clone, Debug)]
pub struct WeightedFair {
    weights: Vec<u64>,
    credit: Vec<i64>,
}

impl WeightedFair {
    /// An arbiter over `weights.len()` tenants. Zero weights are clamped
    /// to 1: a tenant may be slow, never starved.
    pub fn new(weights: &[u64]) -> Self {
        let weights: Vec<u64> = weights.iter().map(|&w| w.max(1)).collect();
        let credit = vec![0; weights.len()];
        WeightedFair { weights, credit }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.weights.len()
    }

    /// The (clamped) weight of tenant `t`.
    pub fn weight(&self, t: usize) -> u64 {
        self.weights[t]
    }

    /// Grant the next slot among tenants where `eligible` holds: each
    /// eligible tenant's credit grows by its weight, the richest (tie →
    /// lowest index) wins and pays back the eligible weight total.
    /// Returns `None` when no tenant is eligible. Ineligible tenants'
    /// credits are frozen, so a tenant that was idle does not build up an
    /// unbounded claim on the future.
    pub fn pick(&mut self, eligible: &[bool]) -> Option<usize> {
        assert_eq!(eligible.len(), self.weights.len(), "eligibility mask size mismatch");
        let mut total = 0i64;
        let mut winner: Option<usize> = None;
        for (t, &ok) in eligible.iter().enumerate() {
            if !ok {
                continue;
            }
            self.credit[t] += self.weights[t] as i64;
            total += self.weights[t] as i64;
            match winner {
                Some(w) if self.credit[w] >= self.credit[t] => {}
                _ => winner = Some(t),
            }
        }
        let w = winner?;
        self.credit[w] -= total;
        Some(w)
    }

    /// Split an integer capacity (heap bytes, rail stripes, drain slots)
    /// proportionally to weight by largest remainder: shares sum exactly
    /// to `total`, remainders go to the largest fractional parts (tie →
    /// lowest index). A zero share is possible when `total` is smaller
    /// than the tenant count — callers that need a floor clamp afterwards.
    pub fn share(&self, total: u64) -> Vec<u64> {
        let wsum: u64 = self.weights.iter().sum();
        if wsum == 0 || self.weights.is_empty() {
            return vec![0; self.weights.len()];
        }
        let mut shares: Vec<u64> = Vec::with_capacity(self.weights.len());
        let mut rema: Vec<(u64, usize)> = Vec::with_capacity(self.weights.len());
        let mut given = 0u64;
        for (t, &w) in self.weights.iter().enumerate() {
            let exact_num = total as u128 * w as u128;
            let base = (exact_num / wsum as u128) as u64;
            let rem = (exact_num % wsum as u128) as u64;
            shares.push(base);
            given += base;
            rema.push((rem, t));
        }
        // Largest remainder first; tie broken by lowest tenant index.
        rema.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut left = total - given;
        for &(_, t) in &rema {
            if left == 0 {
                break;
            }
            shares[t] += 1;
            left -= 1;
        }
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(wf: &mut WeightedFair, n: usize) -> Vec<usize> {
        let all = vec![true; wf.tenants()];
        (0..n).map(|_| wf.pick(&all).unwrap()).collect()
    }

    #[test]
    fn smooth_interleave_two_to_one() {
        let mut wf = WeightedFair::new(&[2, 1]);
        assert_eq!(sequence(&mut wf, 6), vec![0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn grant_counts_match_weights_over_a_full_cycle() {
        let weights = [8, 1, 1, 1, 1, 1, 1, 1];
        let mut wf = WeightedFair::new(&weights);
        let total: u64 = weights.iter().sum();
        let grants = sequence(&mut wf, total as usize * 3);
        for (t, &w) in weights.iter().enumerate() {
            let got = grants.iter().filter(|&&g| g == t).count() as u64;
            assert_eq!(got, w * 3, "tenant {t}");
        }
    }

    #[test]
    fn ineligible_tenants_are_skipped_without_building_credit() {
        let mut wf = WeightedFair::new(&[1, 1]);
        let only1 = [false, true];
        for _ in 0..10 {
            assert_eq!(wf.pick(&only1), Some(1));
        }
        // Tenant 0 becoming eligible again does not get 10 back-grants.
        let both = [true, true];
        let grants: Vec<_> = (0..4).map(|_| wf.pick(&both).unwrap()).collect();
        assert_eq!(grants.iter().filter(|&&g| g == 0).count(), 2);
    }

    #[test]
    fn no_eligible_tenant_returns_none() {
        let mut wf = WeightedFair::new(&[3, 2]);
        assert_eq!(wf.pick(&[false, false]), None);
    }

    #[test]
    fn zero_weight_is_clamped_not_starved() {
        let mut wf = WeightedFair::new(&[4, 0]);
        let grants = sequence(&mut wf, 10);
        assert!(grants.contains(&1), "clamped tenant still gets slots");
    }

    #[test]
    fn share_sums_exactly_and_follows_weights() {
        let wf = WeightedFair::new(&[8, 1, 1, 1, 1, 1, 1, 1]);
        let s = wf.share(4 << 20);
        assert_eq!(s.iter().sum::<u64>(), 4 << 20);
        assert_eq!(s[0], (4 << 20) * 8 / 15);
        let wf2 = WeightedFair::new(&[1, 1, 1]);
        let s2 = wf2.share(10);
        assert_eq!(s2.iter().sum::<u64>(), 10);
        assert_eq!(s2, vec![4, 3, 3], "remainder goes to lowest index on tie");
    }

    #[test]
    fn share_smaller_than_tenant_count_can_zero_out() {
        let wf = WeightedFair::new(&[8, 1, 1, 1]);
        let s = wf.share(2);
        assert_eq!(s.iter().sum::<u64>(), 2);
        assert_eq!(s[0], 2);
    }
}
