//! Hierarchical quotas: per-tenant and per-tier bandwidth-time budgets.
//!
//! Two budget axes, both enforced at admission time (before the intent
//! ever reaches the controller):
//!
//! - **gbps-hours** — the integral of reserved rate over the window, in
//!   exact milli-gbps-hour integer units (`rate_bps × secs / 3.6e9`).
//!   Charged per tenant *and* against the tenant's tier aggregate, so a
//!   tier full of modest tenants cannot collectively exhaust the plant.
//! - **concurrent reservations** — bookings per tenant; the cheap
//!   anti-hoarding cap. Nothing releases a booking yet, so the cap counts
//!   every reservation a tenant was admitted over the whole run.
//!
//! State is lazy: only tenants that actually submit intents get a ledger
//! entry, which keeps a million-tenant fleet's quota plane proportional
//! to the *active* population.

use std::collections::HashMap;

use crate::directory::Tier;

/// Milli-gbps-hours for a reservation of `rate_bps` over `secs`.
///
/// `gbps·h = bps/1e9 × secs/3600`, so milli-units are
/// `bps × secs / 3.6e9`, computed in u128 to avoid overflow.
pub(crate) fn milli_gbps_hours(rate_bps: u64, secs: u64) -> u64 {
    (rate_bps as u128 * secs as u128 / 3_600_000_000) as u64
}

/// Why a quota charge was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaError {
    /// The tenant's own gbps-hour budget is exhausted.
    TenantBudget,
    /// The tier-wide aggregate gbps-hour budget is exhausted.
    TierBudget,
    /// The tenant already holds its maximum concurrent reservations.
    Concurrent,
}

/// Per-tier quota policy.
#[derive(Debug, Clone, Copy)]
pub struct TierPolicy {
    /// Per-tenant gbps-hour budget, in milli-gbps-hours.
    pub tenant_budget_mgh: u64,
    /// Tier-wide aggregate budget, in milli-gbps-hours.
    pub tier_budget_mgh: u64,
    /// Max outstanding reservations per tenant.
    pub max_concurrent: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct TenantUsage {
    used_mgh: u64,
    concurrent: u32,
}

/// The quota ledger: lazy per-tenant usage plus tier aggregates.
#[derive(Debug, Clone)]
pub(crate) struct QuotaLedger {
    policy: [TierPolicy; 3],
    tenants: HashMap<u64, TenantUsage>,
    tier_used_mgh: [u64; 3],
}

impl QuotaLedger {
    /// A ledger enforcing `policy` (indexed by [`Tier::index`]).
    pub fn new(policy: [TierPolicy; 3]) -> QuotaLedger {
        QuotaLedger {
            policy,
            tenants: HashMap::new(),
            tier_used_mgh: [0; 3],
        }
    }

    /// Charge tenant `idx` (of `tier`) for one reservation of
    /// `rate_bps` over `secs`. All-or-nothing: a refusal leaves every
    /// budget untouched.
    pub(crate) fn charge(
        &mut self,
        idx: u64,
        tier: Tier,
        rate_bps: u64,
        secs: u64,
    ) -> Result<(), QuotaError> {
        let cost = milli_gbps_hours(rate_bps, secs);
        let pol = self.policy[tier.index()];
        let usage = self.tenants.entry(idx).or_default();
        if usage.concurrent >= pol.max_concurrent {
            return Err(QuotaError::Concurrent);
        }
        if usage.used_mgh.saturating_add(cost) > pol.tenant_budget_mgh {
            return Err(QuotaError::TenantBudget);
        }
        if self.tier_used_mgh[tier.index()].saturating_add(cost) > pol.tier_budget_mgh {
            return Err(QuotaError::TierBudget);
        }
        usage.used_mgh += cost;
        usage.concurrent += 1;
        self.tier_used_mgh[tier.index()] += cost;
        Ok(())
    }

    /// Tenants with ledger entries (the *active* population).
    pub fn active_tenants(&self) -> usize {
        self.tenants.len()
    }
}

#[cfg(test)]
mod quota_props {
    use super::*;
    use crate::directory::Tier;
    use proptest::prelude::*;

    /// One charge: `(tenant, rate_gbps, secs)`.
    fn charge_op() -> impl Strategy<Value = (u64, u64, u64)> {
        (0u64..8, 1u64..40, 60u64..7_200)
    }

    fn used_mgh(ledger: &QuotaLedger, tenant: u64) -> u64 {
        ledger.tenants.get(&tenant).map_or(0, |u| u.used_mgh)
    }

    fn tight_policy() -> [TierPolicy; 3] {
        let p = TierPolicy {
            tenant_budget_mgh: 40_000,
            tier_budget_mgh: 120_000,
            max_concurrent: 3,
        };
        [p; 3]
    }

    proptest! {
        /// The ledger never admits beyond any budget, refusals charge
        /// nothing, and the tier aggregate is exactly the sum of its
        /// tenants — all checked against a shadow model that replays
        /// the same op sequence with plain arithmetic.
        #[test]
        fn ledger_matches_shadow_model(ops in proptest::collection::vec(charge_op(), 1..120)) {
            let pol = tight_policy();
            let mut ledger = QuotaLedger::new(pol);
            // Shadow: (used_mgh, concurrent) per tenant, plus tier sum.
            let mut shadow: std::collections::HashMap<u64, (u64, u32)> =
                std::collections::HashMap::new();
            let mut shadow_tier = 0u64;
            let tier = Tier::Free;
            let p = pol[tier.index()];
            for &(tenant, rate_gbps, secs) in &ops {
                let rate_bps = rate_gbps * 1_000_000_000;
                let cost = milli_gbps_hours(rate_bps, secs);
                let entry = shadow.entry(tenant).or_default();
                let expect = if entry.1 >= p.max_concurrent {
                    Err(QuotaError::Concurrent)
                } else if entry.0 + cost > p.tenant_budget_mgh {
                    Err(QuotaError::TenantBudget)
                } else if shadow_tier + cost > p.tier_budget_mgh {
                    Err(QuotaError::TierBudget)
                } else {
                    entry.0 += cost;
                    entry.1 += 1;
                    shadow_tier += cost;
                    Ok(())
                };
                prop_assert_eq!(ledger.charge(tenant, tier, rate_bps, secs), expect);
                // Invariants hold after every op, not just at the end.
                let mut sum = 0u64;
                for (t, (used, conc)) in &shadow {
                    prop_assert_eq!(used_mgh(&ledger, *t), *used);
                    prop_assert_eq!(ledger.tenants[t].concurrent, *conc);
                    prop_assert!(*used <= p.tenant_budget_mgh);
                    prop_assert!(*conc <= p.max_concurrent);
                    sum += used;
                }
                prop_assert_eq!(ledger.tier_used_mgh[tier.index()], sum);
                prop_assert!(sum <= p.tier_budget_mgh);
            }
        }

        /// A compliant tenant is never deadlocked: whenever it holds no
        /// reservations and both its own and the tier budget have room
        /// for the request, the charge succeeds — regardless of what
        /// other tenants did before.
        #[test]
        fn compliant_tenant_always_admits(ops in proptest::collection::vec(charge_op(), 0..80)) {
            let pol = tight_policy();
            let mut ledger = QuotaLedger::new(pol);
            let tier = Tier::Standard;
            let p = pol[tier.index()];
            for &(tenant, rate_gbps, secs) in &ops {
                // Background noise from tenants 0..8; tenant 99 is ours
                // alone.
                let _ = ledger.charge(tenant, tier, rate_gbps * 1_000_000_000, secs);
            }
            // 1 Gbps × 36 s = 10 mgh: tiny but non-zero.
            let cost = milli_gbps_hours(1_000_000_000, 36);
            prop_assert!(cost > 0);
            let fits = used_mgh(&ledger, 99) + cost <= p.tenant_budget_mgh
                && ledger.tier_used_mgh[tier.index()] + cost <= p.tier_budget_mgh;
            if fits {
                prop_assert_eq!(ledger.charge(99, tier, 1_000_000_000, 36), Ok(()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> [TierPolicy; 3] {
        let p = TierPolicy {
            tenant_budget_mgh: 10_000,
            tier_budget_mgh: 25_000,
            max_concurrent: 2,
        };
        [p; 3]
    }

    #[test]
    fn unit_conversion_is_exact() {
        // 10 Gbps for one hour = 10 gbps-hours = 10_000 milli.
        assert_eq!(milli_gbps_hours(10_000_000_000, 3_600), 10_000);
        // 1 Gbps for 36 s = 0.01 gbps-hours = 10 milli.
        assert_eq!(milli_gbps_hours(1_000_000_000, 36), 10);
    }

    #[test]
    fn tenant_budget_is_all_or_nothing() {
        let mut q = QuotaLedger::new(policy());
        // 9 gbps-hours: fits. A second charge of 9 would exceed 10.
        assert!(q.charge(1, Tier::Free, 9_000_000_000, 3_600).is_ok());
        assert_eq!(
            q.charge(1, Tier::Free, 9_000_000_000, 3_600),
            Err(QuotaError::TenantBudget)
        );
        // The refusal charged nothing.
        assert_eq!(q.tenants[&1].used_mgh, 9_000);
        assert_eq!(q.tenants[&1].concurrent, 1);
    }

    #[test]
    fn concurrent_cap() {
        let mut q = QuotaLedger::new(policy());
        assert!(q.charge(5, Tier::Standard, 1_000_000_000, 60).is_ok());
        assert!(q.charge(5, Tier::Standard, 1_000_000_000, 60).is_ok());
        assert_eq!(
            q.charge(5, Tier::Standard, 1_000_000_000, 60),
            Err(QuotaError::Concurrent)
        );
    }

    #[test]
    fn tier_aggregate_caps_the_sum_of_tenants() {
        let mut q = QuotaLedger::new(policy());
        // Three tenants × 9 gbps-hours = 27 > 25 tier budget.
        assert!(q.charge(10, Tier::Free, 9_000_000_000, 3_600).is_ok());
        assert!(q.charge(11, Tier::Free, 9_000_000_000, 3_600).is_ok());
        assert_eq!(
            q.charge(12, Tier::Free, 9_000_000_000, 3_600),
            Err(QuotaError::TierBudget)
        );
        // Another tier is unaffected.
        assert!(q.charge(13, Tier::Premium, 9_000_000_000, 3_600).is_ok());
    }
}
