//! DAP grouping stage (§V-A).
//!
//! The collector fixes a minimum acceptable budget `ε₀`, creates
//! `h = ⌈log₂(ε/ε₀)⌉ + 1` equal-sized groups with budgets
//! `ε, ε/2, ε/4, …, ε₀`, and randomly assigns users. A user in group `t`
//! reports `ε/ε_t` times so every user spends exactly ε in total.
//! [`GroupPlan::simulate_round`] plays every client of a plan.

use crate::client::ClientAssignment;
use crate::error::DapError;
use dap_attack::Attack;
use dap_ldp::{Epsilon, NumericMechanism};
use rand::seq::SliceRandom;
use rand::RngCore;

/// The grouping layout for one DAP run.
///
/// ```
/// use dap_core::GroupPlan;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let plan = GroupPlan::build(1_000, 1.0, 0.25, &mut rng);
/// // ε = 1, ε₀ = 1/4 → h = ⌈log₂ 4⌉ + 1 = 3 groups at ε, ε/2, ε/4.
/// assert_eq!(plan.len(), 3);
/// // Every user spends exactly ε in total: k_t · ε_t = ε.
/// for (k, eps_t) in plan.reports_per_user.iter().zip(&plan.budgets) {
///     assert!((*k as f64 * eps_t.get() - 1.0).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupPlan {
    /// Per-group privacy budget `ε_t` (decreasing).
    pub budgets: Vec<Epsilon>,
    /// Per-group reports per user `k_t = ε/ε_t`.
    pub reports_per_user: Vec<usize>,
    /// `assignment[g]` lists the user indices of group `g`.
    pub assignment: Vec<Vec<usize>>,
}

impl GroupPlan {
    /// Number of groups `h = ⌈log₂(ε/ε₀)⌉ + 1`.
    pub fn group_count(eps: f64, eps0: f64) -> usize {
        assert!(eps >= eps0 && eps0 > 0.0, "need ε ≥ ε₀ > 0 (got {eps}, {eps0})");
        ((eps / eps0).log2().ceil() as usize) + 1
    }

    /// Builds the plan for `n_users` users, shuffling them into equal-sized
    /// groups (the paper assumes `ε/ε₀` is a power of two; `k_t` is rounded
    /// to the nearest integer otherwise and budgets rescaled so the total
    /// spend stays exactly ε).
    pub fn build<R: RngCore + ?Sized>(n_users: usize, eps: f64, eps0: f64, rng: &mut R) -> Self {
        let h = Self::group_count(eps, eps0);
        let mut budgets = Vec::with_capacity(h);
        let mut reports_per_user = Vec::with_capacity(h);
        for t in 0..h {
            let k = 1usize << t;
            // ε_t = ε / 2^t exactly, so k_t·ε_t = ε with no rounding error.
            budgets.push(Epsilon::of(eps / k as f64));
            reports_per_user.push(k);
        }

        let mut users: Vec<usize> = (0..n_users).collect();
        users.shuffle(rng);
        let base = n_users / h;
        let extra = n_users % h;
        let mut assignment = Vec::with_capacity(h);
        let mut cursor = 0usize;
        for g in 0..h {
            let size = base + usize::from(g < extra);
            assignment.push(users[cursor..cursor + size].to_vec());
            cursor += size;
        }
        GroupPlan { budgets, reports_per_user, assignment }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.budgets.len()
    }

    /// Names the first component on which two plans differ, or `None` when
    /// they are equal — the plan-side analogue of
    /// [`crate::DapConfig::diff_field`], consumed by
    /// [`crate::DapSession::merge`] rejections.
    pub fn diff_field(&self, other: &GroupPlan) -> Option<&'static str> {
        if self.budgets != other.budgets {
            return Some("plan budgets");
        }
        if self.reports_per_user != other.reports_per_user {
            return Some("plan reports-per-user");
        }
        if self.assignment != other.assignment {
            return Some("plan user assignment");
        }
        None
    }

    /// True when the plan has no groups (only possible for 0 users… never).
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }

    /// Expected number of collected *reports* from group `g`
    /// (`N_t = |G_t| · k_t`, the paper's `N_t = εN/(ε_t h)` for equal
    /// groups).
    pub fn reports_in_group(&self, g: usize) -> usize {
        self.assignment[g].len() * self.reports_per_user[g]
    }

    /// Index of the most private group (smallest `ε_t`) — the probing group.
    pub fn probe_group(&self) -> usize {
        self.len() - 1
    }

    /// The grouping instruction sent to clients of group `g`: report
    /// [`ClientAssignment::k_t`] times under budget `ε_t`.
    ///
    /// # Panics
    /// If `g` is not a group of this plan (use
    /// [`crate::DapSession::client_assignment`] for a fallible lookup).
    pub fn client_assignment(&self, g: usize) -> ClientAssignment {
        ClientAssignment { group: g, eps_t: self.budgets[g], k_t: self.reports_per_user[g] }
    }

    /// Rejects a plan that was not built for the budgets `(ε, ε₀)`: wrong
    /// group count, or a first group not at ε.
    pub(crate) fn check_budgets(&self, eps: f64, eps0: f64) -> Result<(), DapError> {
        if self.len() != GroupPlan::group_count(eps, eps0)
            || self.budgets[0].get().to_bits() != eps.to_bits()
        {
            return Err(DapError::SessionMismatch { what: "config budgets and group plan" });
        }
        Ok(())
    }

    /// Simulates one round over this plan, in the one random-number order
    /// a round has: per group, every honest member in assignment order
    /// perturbs their value into `k_t` reports, then the coalition's poison
    /// block is drawn. Users below `n_honest` are honest; `honest: None`
    /// skips their draws (a poison-only replay), `attack: None` draws no
    /// poison.
    ///
    /// `sink(assignment, user, reports)` gets `Some(user)` with one honest
    /// member's reports and `None` with the poison block, which comes once
    /// per group (empty when nothing was drawn) and so ends the group. The
    /// first error `sink` returns stops the round.
    pub fn simulate_round<M, R, E>(
        &self,
        n_honest: usize,
        honest: Option<&[f64]>,
        attack: Option<&dyn Attack>,
        mech_factory: impl Fn(Epsilon) -> M,
        rng: &mut R,
        mut sink: impl FnMut(ClientAssignment, Option<usize>, &[f64]) -> Result<(), E>,
    ) -> Result<(), E>
    where
        M: NumericMechanism,
        R: RngCore,
    {
        for g in 0..self.len() {
            let assign = self.client_assignment(g);
            let mech = mech_factory(assign.eps_t);
            let mut buf = vec![0.0f64; assign.k_t];
            let mut byz_members = 0usize;
            for &user in &self.assignment[g] {
                if user >= n_honest {
                    byz_members += 1;
                } else if let Some(values) = honest {
                    assign.perturb_into(&mech, values[user], &mut buf, rng);
                    sink(assign, Some(user), &buf)?;
                }
            }
            let mut poison = vec![0.0f64; attack.map_or(0, |_| byz_members * assign.k_t)];
            let drawn = attack.map_or(0, |a| a.reports_into(&mut poison, &mech, rng));
            sink(assign, None, &poison[..drawn])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_estimation::rng::seeded;

    #[test]
    fn group_count_matches_paper_formula() {
        assert_eq!(GroupPlan::group_count(2.0, 1.0 / 16.0), 6);
        assert_eq!(GroupPlan::group_count(0.25, 1.0 / 16.0), 3);
        assert_eq!(GroupPlan::group_count(1.0 / 16.0, 1.0 / 16.0), 1);
    }

    #[test]
    fn budgets_halve_and_reports_double() {
        let mut rng = seeded(1);
        let plan = GroupPlan::build(1200, 1.0, 1.0 / 8.0, &mut rng);
        assert_eq!(plan.len(), 4);
        let eps: Vec<f64> = plan.budgets.iter().map(|e| e.get()).collect();
        assert_eq!(eps, vec![1.0, 0.5, 0.25, 0.125]);
        assert_eq!(plan.reports_per_user, vec![1, 2, 4, 8]);
        // Total spend per user is exactly ε.
        for (k, e) in plan.reports_per_user.iter().zip(&plan.budgets) {
            assert!((*k as f64 * e.get() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn assignment_partitions_all_users() {
        let mut rng = seeded(2);
        let plan = GroupPlan::build(1000, 2.0, 1.0 / 16.0, &mut rng);
        let mut seen = vec![false; 1000];
        for group in &plan.assignment {
            for &u in group {
                assert!(!seen[u], "user {u} assigned twice");
                seen[u] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Equal-sized groups up to the remainder.
        let sizes: Vec<usize> = plan.assignment.iter().map(Vec::len).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn report_volume_grows_in_private_groups() {
        let mut rng = seeded(3);
        let plan = GroupPlan::build(600, 1.0, 0.25, &mut rng);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.reports_in_group(0), 200);
        assert_eq!(plan.reports_in_group(2), 800);
        assert_eq!(plan.probe_group(), 2);
    }

    #[test]
    fn shuffling_is_seed_deterministic() {
        let a = GroupPlan::build(100, 1.0, 0.5, &mut seeded(7));
        let b = GroupPlan::build(100, 1.0, 0.5, &mut seeded(7));
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    #[should_panic(expected = "need ε ≥ ε₀")]
    fn rejects_eps_below_eps0() {
        GroupPlan::group_count(0.01, 0.0625);
    }

    #[test]
    fn every_plan_diff_field_is_wire_encodable() {
        use crate::error::DapError;
        let base = GroupPlan::build(100, 1.0, 0.25, &mut seeded(1));
        assert_eq!(base.diff_field(&base), None);

        let mut budgets = base.clone();
        budgets.budgets[0] = Epsilon::of(2.0);
        let mut reports = base.clone();
        reports.reports_per_user[0] += 1;
        let mut assignment = base.clone();
        assignment.assignment[0].reverse();
        for (plan, expected) in [
            (budgets, "plan budgets"),
            (reports, "plan reports-per-user"),
            (assignment, "plan user assignment"),
        ] {
            let field = plan.diff_field(&base).expect("one component differs");
            assert_eq!(field, expected);
            assert!(
                DapError::MISMATCH_FIELDS.contains(&field),
                "'{field}' missing from DapError::MISMATCH_FIELDS"
            );
        }
    }
}
