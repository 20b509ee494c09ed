//! Cloud-service-provider data centers.
//!
//! A [`DataCenter`] is a customer premises site (Fig. 3/4): servers,
//! Ethernet switches, a 1/10 G multiplexer and a 10/40 G muxponder NTE,
//! attached to a carrier PoP (a ROADM node) through a fixed dedicated
//! access pipe. The access pipe's rate caps how much BoD bandwidth the
//! site can actually terminate — a constraint the schedulers respect.

use serde::{Deserialize, Serialize};
use simcore::{define_id, DataRate, DataSize};

use photonic::RoadmId;

define_id!(
    /// Identifier of a data center site.
    DataCenterId,
    "dc"
);

/// One CSP data center.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataCenter {
    /// This site's id.
    pub id: DataCenterId,
    /// Display name.
    pub name: String,
    /// The carrier PoP it homes to.
    pub site: RoadmId,
    /// Access-pipe capacity (the "fat pipe" of Fig. 3).
    pub access: DataRate,
    /// Content stored at the site (grows with replication).
    pub stored: DataSize,
}

/// The CSP's fleet of sites.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataCenterSet {
    sites: Vec<DataCenter>,
}

impl DataCenterSet {
    /// An empty fleet.
    pub fn new() -> DataCenterSet {
        Self::default()
    }

    /// Add a site homed at `site` with the given access-pipe rate.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        site: RoadmId,
        access: DataRate,
    ) -> DataCenterId {
        let id = DataCenterId::from_index(self.sites.len());
        self.sites.push(DataCenter {
            id,
            name: name.into(),
            site,
            access,
            stored: DataSize::ZERO,
        });
        id
    }

    /// Read a site.
    pub fn get(&self, id: DataCenterId) -> &DataCenter {
        &self.sites[id.index()]
    }

    /// All sites.
    pub fn iter(&self) -> impl Iterator<Item = &DataCenter> {
        self.sites.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_lookup() {
        let mut dcs = DataCenterSet::new();
        let a = dcs.add("ashburn", RoadmId::new(0), DataRate::from_gbps(40));
        let b = dcs.add("dallas", RoadmId::new(1), DataRate::from_gbps(40));
        let c = dcs.add("sanjose", RoadmId::new(2), DataRate::from_gbps(40));
        assert_eq!(dcs.iter().count(), 3);
        assert_eq!(
            [a, b, c].map(|id| dcs.get(id).name.as_str()),
            ["ashburn", "dallas", "sanjose"]
        );
    }
}
