//! The §6.3 "future version of NAT Check": paired testing with two
//! client hosts behind the same NAT.
//!
//! The paper observes that some NATs "consistently translate the
//! client's private endpoint as long as only one client behind the NAT is
//! using a particular private port number, but switch to symmetric NAT or
//! even worse behaviors if two or more clients with different IP
//! addresses ... try to communicate through the NAT from the same private
//! port number" — and that single-client NAT Check cannot detect this.
//! The authors planned a two-host test mode; this module implements it.

use crate::client::{NatCheckClient, NatCheckReport};
use crate::servers::{CheckServer, ServerRole};
use crate::survey::{S1, S2, S3};
use punch_lab::{addrs, PeerSetup, WorldBuilder};
use punch_nat::NatBehavior;
use punch_net::SimTime;
use std::net::Ipv4Addr;

/// Result of a paired NAT Check run.
#[derive(Clone, Copy, Debug)]
pub struct PairReport {
    /// The first client's report (it allocated its mappings first).
    pub first: NatCheckReport,
    /// The second client's report, contending for the same private port.
    pub second: NatCheckReport,
}

impl PairReport {
    /// Both clients observed consistent translation: the NAT keeps its
    /// cone behaviour even under private-port contention.
    pub fn consistent_under_contention(&self) -> Option<bool> {
        match (self.first.udp_consistent, self.second.udp_consistent) {
            (Some(a), Some(b)) => Some(a && b),
            _ => None,
        }
    }

    /// The §6.3 blind spot made visible: single-client testing would
    /// pass (the first client looks fine) while contention breaks the
    /// second client.
    pub fn hidden_contention_failure(&self) -> bool {
        self.first.udp_consistent == Some(true) && self.second.udp_consistent == Some(false)
    }
}

/// Runs NAT Check from **two** client hosts behind the same NAT, both
/// using private port 4321 — the test mode §6.3 says a future NAT Check
/// version should add.
pub fn check_nat_pair(behavior: NatBehavior, seed: u64) -> PairReport {
    const SHARED_PORT: u16 = 4321;
    let mut wb = WorldBuilder::new(seed);
    wb.server(S1, CheckServer::new(ServerRole::One));
    wb.server(S2, CheckServer::new(ServerRole::Two { s3: S3 }));
    wb.server(S3, CheckServer::new(ServerRole::Three));
    let nat = wb.nat(behavior, addrs::NAT_A);
    let c1 = wb.client(
        addrs::CLIENT_A,
        nat,
        PeerSetup::new(NatCheckClient::new(S1, S2, S3).with_udp_port(SHARED_PORT)),
    );
    let c2 = wb.client(
        Ipv4Addr::new(10, 0, 0, 2),
        nat,
        PeerSetup::new(NatCheckClient::new(S1, S2, S3).with_udp_port(SHARED_PORT)),
    );
    let mut world = wb.build();
    let (c1, c2) = (world.clients[c1], world.clients[c2]);
    world.run_until_app::<NatCheckClient>(c1, SimTime::from_secs(120), |c| c.done());
    world.run_until_app::<NatCheckClient>(c2, SimTime::from_secs(120), |c| c.done());
    PairReport {
        first: world.app::<NatCheckClient>(c1).report(),
        second: world.app::<NatCheckClient>(c2).report(),
    }
}
