//! Multi-customer isolation.
//!
//! §4 (*Network resource planning*): "The carrier should also ensure
//! isolation of services across different CSPs." GRIPhoN shares one
//! physical plant among cloud providers; what keeps one tenant's burst
//! from starving another is admission control against per-tenant
//! bandwidth quotas, enforced *before* any resource is claimed.

use serde::{Deserialize, Serialize};
use simcore::{define_id, DataRate};
use std::collections::BTreeMap;

define_id!(
    /// Identifier of a cloud-service-provider customer.
    CustomerId,
    "csp"
);

/// One tenant's contract.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tenant {
    /// This tenant's id.
    pub id: CustomerId,
    /// Display name.
    pub name: String,
    /// Maximum aggregate provisioned bandwidth.
    pub quota: DataRate,
    /// Currently provisioned bandwidth.
    pub in_use: DataRate,
    /// Restoration priority: lower restores first (premium = 0,
    /// default = 100). §4: the carrier manages a shared pool across
    /// customers; when a cut hits many circuits at once, this decides
    /// who waits.
    pub priority: u8,
}

/// Why admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// Unknown customer id.
    NoSuchTenant(CustomerId),
    /// The request would exceed the tenant's quota.
    QuotaExceeded {
        /// Who.
        customer: CustomerId,
        /// What was requested.
        requested: DataRate,
        /// Quota headroom remaining.
        available: DataRate,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::NoSuchTenant(c) => write!(f, "no such tenant {c}"),
            AdmissionError::QuotaExceeded {
                customer,
                requested,
                available,
            } => write!(f, "{customer}: {requested} exceeds headroom {available}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Restoration priority assigned when none is given (lower = restored
/// first).
pub const DEFAULT_PRIORITY: u8 = 100;

/// The tenant table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TenantRegistry {
    tenants: BTreeMap<CustomerId, Tenant>,
    next: u32,
}

impl TenantRegistry {
    /// Empty registry.
    pub fn new() -> TenantRegistry {
        Self::default()
    }

    /// Onboard a tenant with a quota at default priority.
    pub fn register(&mut self, name: impl Into<String>, quota: DataRate) -> CustomerId {
        self.register_with_priority(name, quota, DEFAULT_PRIORITY)
    }

    /// Onboard a tenant with an explicit restoration priority
    /// (lower = restored first).
    pub(crate) fn register_with_priority(
        &mut self,
        name: impl Into<String>,
        quota: DataRate,
        priority: u8,
    ) -> CustomerId {
        let id = CustomerId::new(self.next);
        self.next += 1;
        self.tenants.insert(
            id,
            Tenant {
                id,
                name: name.into(),
                quota,
                in_use: DataRate::ZERO,
                priority,
            },
        );
        id
    }

    /// A tenant's restoration priority (default 100 for unknown ids).
    pub fn priority(&self, id: CustomerId) -> u8 {
        self.tenants.get(&id).map(|t| t.priority).unwrap_or(100)
    }

    /// Read a tenant.
    pub fn get(&self, id: CustomerId) -> Option<&Tenant> {
        self.tenants.get(&id)
    }

    /// All tenants.
    pub fn iter(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.values()
    }

    /// Check and commit a bandwidth claim atomically.
    pub fn admit(&mut self, id: CustomerId, rate: DataRate) -> Result<(), AdmissionError> {
        let t = self
            .tenants
            .get_mut(&id)
            .ok_or(AdmissionError::NoSuchTenant(id))?;
        let available = t.quota.saturating_sub(t.in_use);
        if rate > available {
            return Err(AdmissionError::QuotaExceeded {
                customer: id,
                requested: rate,
                available,
            });
        }
        t.in_use += rate;
        Ok(())
    }

    /// Return bandwidth to the tenant's quota (on teardown or blocked
    /// provisioning).
    ///
    /// # Panics
    /// If the tenant is unknown or more is released than was in use —
    /// both are accounting bugs.
    pub fn release(&mut self, id: CustomerId, rate: DataRate) {
        let t = self
            .tenants
            .get_mut(&id)
            .unwrap_or_else(|| panic!("release for unknown tenant {id}"));
        assert!(
            rate <= t.in_use,
            "{id}: releasing {rate} with only {} in use",
            t.in_use
        );
        t.in_use = t.in_use.saturating_sub(rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_enforced() {
        let mut reg = TenantRegistry::new();
        let a = reg.register("acme-cloud", DataRate::from_gbps(20));
        reg.admit(a, DataRate::from_gbps(10)).unwrap();
        reg.admit(a, DataRate::from_gbps(10)).unwrap();
        let err = reg.admit(a, DataRate::from_gbps(1)).unwrap_err();
        assert!(matches!(err, AdmissionError::QuotaExceeded { .. }));
        reg.release(a, DataRate::from_gbps(10));
        reg.admit(a, DataRate::from_gbps(5)).unwrap();
        assert_eq!(reg.get(a).unwrap().in_use, DataRate::from_gbps(15));
    }

    #[test]
    fn tenants_are_isolated() {
        let mut reg = TenantRegistry::new();
        let a = reg.register("a", DataRate::from_gbps(10));
        let b = reg.register("b", DataRate::from_gbps(10));
        reg.admit(a, DataRate::from_gbps(10)).unwrap();
        // A's exhaustion does not affect B.
        reg.admit(b, DataRate::from_gbps(10)).unwrap();
        assert_eq!(reg.iter().count(), 2);
    }

    #[test]
    fn priorities_register_and_default() {
        let mut reg = TenantRegistry::new();
        let normal = reg.register("n", DataRate::from_gbps(1));
        let premium = reg.register_with_priority("p", DataRate::from_gbps(1), 0);
        assert_eq!(reg.priority(normal), 100);
        assert_eq!(reg.priority(premium), 0);
        assert_eq!(reg.priority(CustomerId::new(99)), 100);
    }

    #[test]
    fn unknown_tenant_rejected() {
        let mut reg = TenantRegistry::new();
        assert_eq!(
            reg.admit(CustomerId::new(9), DataRate::from_gbps(1)),
            Err(AdmissionError::NoSuchTenant(CustomerId::new(9)))
        );
    }

    #[test]
    #[should_panic(expected = "in use")]
    fn over_release_panics() {
        let mut reg = TenantRegistry::new();
        let a = reg.register("a", DataRate::from_gbps(10));
        reg.release(a, DataRate::from_gbps(1));
    }
}
