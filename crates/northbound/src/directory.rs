//! Tenant directory: tiers and token authentication at fleet scale.
//!
//! A million-tenant registry cannot be a million heap entries when only
//! a few thousand tenants are active in any window. The directory is
//! therefore *derivational*: a tenant's tier is a pure function of its
//! index, and its bearer token is a keyed hash of the index — O(1)
//! memory regardless of fleet size, with authentication recomputing the
//! expected token instead of looking it up.

use serde::Serialize;

/// Service tier of a tenant, priced and rate-limited differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Tier {
    /// Contracted capacity: widest quotas, drained first.
    Premium,
    /// Standard pay-as-you-go.
    Standard,
    /// Free / trial tier: tightest limits, shed first.
    Free,
}

impl Tier {
    /// All tiers in drain-priority order.
    pub(crate) const ALL: [Tier; 3] = [Tier::Premium, Tier::Standard, Tier::Free];

    /// Stable metric-label name.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Premium => "premium",
            Tier::Standard => "standard",
            Tier::Free => "free",
        }
    }

    /// Index into per-tier arrays (drain-priority order).
    pub fn index(self) -> usize {
        match self {
            Tier::Premium => 0,
            Tier::Standard => 1,
            Tier::Free => 2,
        }
    }
}

/// SplitMix64 finalizer — the same mixing function [`simcore::SimRng`]
/// seeds itself with; good enough to make tokens unguessable-in-practice
/// for a simulation while staying a pure function of `(secret, index)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fleet-scale tenant directory.
#[derive(Debug, Clone)]
pub struct TenantDirectory {
    fleet: u64,
    secret: u64,
}

impl TenantDirectory {
    /// A directory over `fleet` tenants keyed by `secret`.
    pub fn new(fleet: u64, secret: u64) -> TenantDirectory {
        assert!(fleet > 0, "a fleet needs at least one tenant");
        TenantDirectory { fleet, secret }
    }

    /// Fleet size.
    pub fn fleet(&self) -> u64 {
        self.fleet
    }

    /// Tier of tenant `idx`: 1% premium, 9% standard, 90% free,
    /// interleaved by index so every tier spans the whole popularity
    /// range of the Zipf rank distribution.
    pub(crate) fn tier_of(&self, idx: u64) -> Tier {
        match idx % 100 {
            0 => Tier::Premium,
            1..=9 => Tier::Standard,
            _ => Tier::Free,
        }
    }

    /// The bearer token issued to tenant `idx`.
    pub fn token_for(&self, idx: u64) -> u64 {
        mix(self.secret ^ mix(idx))
    }

    /// Authenticate a presented `(idx, token)` pair; `None` rejects
    /// unknown tenants and forged tokens alike.
    pub(crate) fn authenticate(&self, idx: u64, token: u64) -> Option<Tier> {
        if idx >= self.fleet || token != self.token_for(idx) {
            return None;
        }
        Some(self.tier_of(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_split_is_1_9_90() {
        let d = TenantDirectory::new(1_000, 7);
        let mut counts = [0usize; 3];
        for i in 0..1_000 {
            counts[d.tier_of(i).index()] += 1;
        }
        assert_eq!(counts, [10, 90, 900]);
    }

    #[test]
    fn tokens_authenticate_and_forgeries_fail() {
        let d = TenantDirectory::new(100, 0x5EC);
        for idx in [0u64, 1, 50, 99] {
            let tok = d.token_for(idx);
            assert_eq!(d.authenticate(idx, tok), Some(d.tier_of(idx)));
            assert_eq!(d.authenticate(idx, tok ^ 1), None);
        }
        // Out-of-fleet index fails even with a "valid" token shape.
        assert_eq!(d.authenticate(100, d.token_for(100)), None);
    }

    #[test]
    fn tokens_are_distinct_across_secrets() {
        let a = TenantDirectory::new(10, 1);
        let b = TenantDirectory::new(10, 2);
        assert_ne!(a.token_for(3), b.token_for(3));
    }
}
