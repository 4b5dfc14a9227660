//! Per-session punch timeline: sim-time stamps for each phase of the
//! §3.2 procedure.
//!
//! A [`PunchTimeline`] is recorded for every [`crate::UdpPeer`] session,
//! whether or not the simulation's metrics registry is enabled — it is a
//! small fixed-size struct and costs no RNG draws or allocations. Read it
//! after (or during) a punch via [`crate::UdpPeer::timeline`]:
//!
//! - `registered` — our registration with S was acknowledged (the
//!   precondition for any punch).
//! - `requested` — we sent S the connect request (§3.2 step 1; absent on
//!   the responder side, which learns of the punch from S's
//!   introduction).
//! - `introduced` — S's introduction arrived with the peer's candidate
//!   endpoints (§3.2 step 2).
//! - `first_probe` — the first authentication probe of the first volley
//!   left this endpoint.
//! - `established` — the session locked in on a direct endpoint.
//! - `relay_fallback` — the punch gave up and traffic switched to the
//!   relay (§2.2).
//! - `failed` — the punch gave up with relaying disabled; see
//!   [`PunchTimeline::failure`].
//! - `candidates` / `winner` — the per-candidate race record: one
//!   [`CandidateStamp`] per raced endpoint (first probe, first
//!   authenticated response, won flag) and the endpoint the session
//!   locked in on.
//!
//! An on-demand re-punch (§3.6) resets the timeline: stamps always
//! describe the most recent punch cycle for the session.

use crate::candidates::CandidateStamp;
use punch_net::{Endpoint, SimTime};
use std::time::Duration;

/// Sim-time stamps for the phases of one UDP hole-punch cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PunchTimeline {
    /// When this endpoint's registration with S was first acknowledged
    /// (a punch cannot start before it; copied from the peer when the
    /// session is created).
    pub registered: Option<SimTime>,
    /// Connect request sent to S (initiator only).
    pub requested: Option<SimTime>,
    /// Introduction received from S.
    pub introduced: Option<SimTime>,
    /// First probe of the punch sprayed at the peer's candidates.
    pub first_probe: Option<SimTime>,
    /// Session established on a direct path.
    pub established: Option<SimTime>,
    /// Punch failed; session fell back to relaying through S.
    pub relay_fallback: Option<SimTime>,
    /// Punch failed with relaying disabled.
    pub failed: Option<SimTime>,
    /// Why the direct punch gave up, set alongside `relay_fallback` or
    /// `failed` (e.g. `"max-attempts"`, `"server-rejected"`,
    /// `"session-timeout"`).
    pub failure: Option<&'static str>,
    /// Probe volleys sent during this punch cycle.
    pub attempts: u32,
    /// Per-candidate race record for this cycle: which endpoints were
    /// raced, when each was first probed, when each first answered with
    /// an authenticated response, and which one won. While the race is
    /// live this reflects the current state; after settling it is the
    /// final snapshot.
    pub candidates: Vec<CandidateStamp>,
    /// The endpoint the race locked in on, if the punch established.
    pub winner: Option<Endpoint>,
}

impl PunchTimeline {
    /// A fresh timeline whose cycle starts now (used when a punch begins
    /// or a §3.6 re-punch resets the record).
    pub(crate) fn start(now: SimTime) -> Self {
        PunchTimeline {
            requested: Some(now),
            ..PunchTimeline::default()
        }
    }

    /// Time from the start of the punch (connect request, or the
    /// introduction for the responder side) to establishment, if the
    /// punch succeeded.
    pub fn punch_latency(&self) -> Option<Duration> {
        let start = self.requested.or(self.introduced)?;
        Some(self.established?.saturating_since(start))
    }

    /// True once the cycle reached a terminal phase (established,
    /// relaying, or failed).
    pub fn is_settled(&self) -> bool {
        self.established.is_some() || self.relay_fallback.is_some() || self.failed.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn latency_measured_from_request() {
        let tl = PunchTimeline {
            requested: Some(t(100)),
            introduced: Some(t(150)),
            established: Some(t(600)),
            ..PunchTimeline::default()
        };
        assert_eq!(tl.punch_latency(), Some(Duration::from_millis(500)));
    }

    #[test]
    fn responder_latency_falls_back_to_introduction() {
        let tl = PunchTimeline {
            introduced: Some(t(150)),
            established: Some(t(600)),
            ..PunchTimeline::default()
        };
        assert_eq!(tl.punch_latency(), Some(Duration::from_millis(450)));
    }

    #[test]
    fn unfinished_punch_has_no_latency() {
        let tl = PunchTimeline {
            requested: Some(t(100)),
            first_probe: Some(t(200)),
            ..PunchTimeline::default()
        };
        assert_eq!(tl.punch_latency(), None);
        assert!(!tl.is_settled());
    }
}
