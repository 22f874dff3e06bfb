//! The client half of the protocol: local perturbation under an assigned
//! group budget.
//!
//! The paper's protocol (§V, Fig. 3) is client/server: the collector only
//! ever decides *grouping* — which budget `ε_t` a user reports under and how
//! many reports `k_t = ε/ε_t` they owe — while every perturbation happens on
//! the user's device. [`ClientAssignment`] is exactly that instruction, and
//! together with any [`NumericMechanism`] it turns one private value into
//! the user's `k_t` reports. Nothing here touches aggregator state; the
//! reports are handed to a [`crate::DapSession`] (or any other transport)
//! by the caller.
//!
//! Privacy accounting is intentionally *not* done here: the client spends
//! `k_t · ε_t = ε` by construction, and the simulation layer
//! ([`crate::Dap`]) double-checks that invariant with a
//! [`crate::PrivacyAccountant`] across all simulated users.

use dap_ldp::{Epsilon, NumericMechanism};
use rand::RngCore;

/// One user's grouping instruction: report `k_t` times under budget `ε_t`
/// into group `group`.
///
/// Produced by [`crate::GroupPlan::client_assignment`]; `k_t · ε_t` always
/// equals the deployment's global budget ε (sequential composition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientAssignment {
    /// Index of the group the reports belong to.
    pub group: usize,
    /// The per-report budget `ε_t`.
    pub eps_t: Epsilon,
    /// Number of reports owed, `k_t = ε/ε_t`.
    pub k_t: usize,
}

impl ClientAssignment {
    /// Total privacy spend of honoring this assignment,
    /// `k_t · ε_t` (= ε exactly, since `ε_t = ε/2^t` and `k_t = 2^t`).
    pub fn total_spend(&self) -> f64 {
        self.eps_t.get() * self.k_t as f64
    }

    /// Perturbs `value` into the caller's buffer, one report per slot.
    ///
    /// `out` must hold exactly `k_t` slots and `mech` must be built for
    /// `ε_t` — both are the client's own bookkeeping, so violations are
    /// programming errors (panics), not protocol errors.
    ///
    /// Generic over the mechanism and RNG so the simulation hot path
    /// ([`crate::GroupPlan::simulate_round`]) gets fully inlined draws
    /// ([`NumericMechanism::perturb_into`]).
    pub fn perturb_into<M: NumericMechanism, R: RngCore>(
        &self,
        mech: &M,
        value: f64,
        out: &mut [f64],
        rng: &mut R,
    ) {
        assert_eq!(out.len(), self.k_t, "assignment owes {} reports", self.k_t);
        debug_assert_eq!(
            mech.epsilon().get().to_bits(),
            self.eps_t.get().to_bits(),
            "mechanism budget does not match the assignment"
        );
        mech.perturb_into(value, out, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_estimation::rng::seeded;
    use dap_ldp::PiecewiseMechanism;

    fn assignment() -> ClientAssignment {
        ClientAssignment { group: 2, eps_t: Epsilon::of(0.25), k_t: 4 }
    }

    #[test]
    fn spend_is_exactly_eps() {
        assert!((assignment().total_spend() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn reports_stay_in_the_output_domain() {
        let a = assignment();
        let mech = PiecewiseMechanism::new(a.eps_t);
        let mut reports = [0.0; 4];
        a.perturb_into(&mech, 0.3, &mut reports, &mut seeded(1));
        let (lo, hi) = dap_ldp::NumericMechanism::output_range(&mech);
        assert!(reports.iter().all(|r| (lo..=hi).contains(r)));
    }

    #[test]
    fn matches_direct_perturb_into_bitwise() {
        let a = assignment();
        let mech = PiecewiseMechanism::new(a.eps_t);
        let mut client = vec![0.0; a.k_t];
        a.perturb_into(&mech, -0.4, &mut client, &mut seeded(9));
        let mut direct = vec![0.0; a.k_t];
        mech.perturb_into(-0.4, &mut direct, &mut seeded(9));
        assert_eq!(
            client.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "owes 4 reports")]
    fn wrong_buffer_size_is_a_programming_error() {
        let a = assignment();
        let mech = PiecewiseMechanism::new(a.eps_t);
        a.perturb_into(&mech, 0.0, &mut [0.0; 3], &mut seeded(1));
    }
}
