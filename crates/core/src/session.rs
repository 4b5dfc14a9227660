//! The decisions [`crate::UdpPeer`] and [`crate::TcpPeer`] both make.
//!
//! §3.2 and §4.2 are one procedure told twice: register with S, be
//! introduced, race the candidates, lock in the first *authenticated*
//! answer, fall back to S (§2.2). What differs is the carrier — one
//! datagram socket, or a listener plus a `connect()` per candidate — and
//! that stays in `udp.rs` / `tcp.rs` together with each peer's metric
//! names, event emissions and RNG draws. What does not differ is decided
//! here, once (the relay payload format, D2, is [`crate::relay`]; the
//! event vocabulary, D9, is [`crate::PeerEvent`]):
//!
//! - D1 [`Backlog`]: what is asked before `RegisterAck` is done after it,
//!   as what it was, in the order it was asked.
//! - D3 [`homes`]: which servers are a UDP client's (a TCP client has
//!   the one `server`).
//! - D4 [`Phase`]: `Punching → Established(link) | Relaying | Failed`.
//! - D5 [`Race::authenticates`]: only the introduced nonce speaks for a peer.
//! - D6 [`Race::win`] / [`Race::lose`]: a race settles exactly once, and
//!   what was queued meanwhile is handed back in order.
//! - D7 [`Race::lose`]: a UDP punch that failed with relaying off has
//!   nobody to hand its queue to; the queue is dropped, not kept (a TCP
//!   punch always relays).
//! - D8 [`Timers`]: one token per armed timer, forgotten when it fires;
//!   the one record of what is pending ([`Timers::is_armed`]).
//!   `TcpSession::deadline_armed` is no copy of it: it also remembers a
//!   deadline that already fired, so a late `Introduce` arms no second.
//!
//! The module is pure — no `Os`, no metric, no RNG draw — because the
//! pinned `results/LINT_*` registries name every emission and every draw
//! by its file and `fn`; a shared module that emitted would move them.

use crate::candidates::{CandidateKind, CandidateSet, CandidateStamp};
use bytes::Bytes;
use punch_net::flat::FlatMap;
use punch_net::{Endpoint, SimTime};
use punch_rendezvous::PeerId;

/// An operation the application asked for before S acknowledged us.
pub(crate) enum Asked {
    Connect,
    /// §2.3; only [`crate::TcpPeer`] offers it.
    Reversal,
    Send(Bytes),
}

/// D1: the operations waiting for the first `RegisterAck`, in call order.
pub(crate) type Backlog = Vec<(PeerId, Asked)>;

/// D3: the servers client `id` registers with — its `replication` ring
/// owners in a fleet, else the one `server`.
pub(crate) fn homes(
    server: Endpoint,
    fleet: &[Endpoint],
    id: PeerId,
    replication: usize,
) -> Vec<Endpoint> {
    if fleet.is_empty() {
        vec![server]
    } else {
        punch_rendezvous::ring::owners(fleet, id, replication.max(1))
    }
}

/// D4: where a session stands; `L` is what the carrier keeps about the
/// path it locked in.
#[derive(Debug)]
pub(crate) enum Phase<L> {
    /// Waiting for S's introduction and/or racing candidates.
    Punching,
    /// Locked in on the first authenticated answer (§3.2 step 3, §4.2 step 5).
    Established(L),
    /// Punch failed; traffic flows through S (§2.2).
    Relaying,
    /// Punch failed and relaying is disabled (UDP only).
    Failed,
}

/// How a race ended: its frozen per-candidate record and the payloads
/// queued while it ran, oldest first.
pub(crate) struct Settled {
    /// The winning candidate's kind; `None` for a loss, or a winner that
    /// was never a listed candidate.
    pub(crate) winner_kind: Option<CandidateKind>,
    pub(crate) stamps: Vec<CandidateStamp>,
    /// Candidates probed at least once.
    pub(crate) probed: usize,
    pub(crate) queued: Vec<Bytes>,
}

/// One punch session's carrier-independent state.
#[derive(Debug)]
pub(crate) struct Race<L> {
    /// The nonce S introduced this punch cycle under.
    pub(crate) nonce: u64,
    pub(crate) phase: Phase<L>,
    pub(crate) candidates: CandidateSet,
    queued: Vec<Bytes>,
}

impl<L> Race<L> {
    pub(crate) fn new(nonce: u64) -> Self {
        Race {
            nonce,
            phase: Phase::Punching,
            candidates: CandidateSet::default(),
            queued: Vec::new(),
        }
    }

    pub(crate) fn is_punching(&self) -> bool {
        matches!(self.phase, Phase::Punching)
    }

    /// The locked-in path, if established.
    pub(crate) fn link(&self) -> Option<&L> {
        match &self.phase {
            Phase::Established(link) => Some(link),
            _ => None,
        }
    }

    /// Punching with nothing fresh to race: an `ErrorReply` from S, which
    /// names no peer, can only be about a session like this.
    pub(crate) fn awaits_introduction(&self) -> bool {
        self.is_punching() && (self.candidates.is_empty() || self.candidates.is_stale())
    }

    /// D5: whether a hello or ack carrying `nonce` is the introduced
    /// peer's (§3.4: anything else is a stranger's).
    pub(crate) fn authenticates(&self, nonce: u64) -> bool {
        self.nonce == nonce
    }

    /// Holds `data` until the race settles.
    pub(crate) fn queue(&mut self, data: Bytes) {
        self.queued.push(data);
    }

    /// D6: an authenticated answer arrived over `link` from `remote`. The
    /// first one settles the race — lock in, freeze the record, hand back
    /// the queue; on an established session it is only recorded and the
    /// winner stands (`None`).
    pub(crate) fn win(&mut self, link: L, remote: Endpoint, now: SimTime) -> Option<Settled> {
        self.candidates.mark_response(remote, now);
        if self.link().is_some() {
            return None;
        }
        self.phase = Phase::Established(link);
        let winner_kind = self.candidates.mark_winner(remote);
        Some(self.settled(winner_kind))
    }

    /// D6 on the losing side, and D7: a punching session gives up. With
    /// `relay` the queue is handed back to be sent through S; without,
    /// nothing can ever deliver it and it is dropped. `None` when the
    /// session was not punching.
    pub(crate) fn lose(&mut self, relay: bool) -> Option<Settled> {
        if !self.is_punching() {
            return None;
        }
        if relay {
            self.phase = Phase::Relaying;
        } else {
            self.phase = Phase::Failed;
            self.queued.clear();
        }
        Some(self.settled(None))
    }

    fn settled(&mut self, winner_kind: Option<CandidateKind>) -> Settled {
        Settled {
            winner_kind,
            stamps: self.candidates.stamps(),
            probed: self.candidates.probed().count(),
            queued: std::mem::take(&mut self.queued),
        }
    }
}

/// D8: what each armed timer token means.
pub(crate) struct Timers<P> {
    next: u64,
    armed: FlatMap<u64, P>,
}

impl<P> Timers<P> {
    pub(crate) fn new() -> Self {
        Timers {
            next: 1,
            armed: FlatMap::new(),
        }
    }

    /// Remembers `purpose`; the returned token goes to `Os::set_timer`.
    pub(crate) fn arm(&mut self, purpose: P) -> u64 {
        let token = self.next;
        self.next += 1;
        self.armed.insert(token, purpose);
        token
    }

    /// What the token that just fired was armed for.
    pub(crate) fn fired(&mut self, token: u64) -> Option<P> {
        self.armed.remove(&token)
    }

    /// Whether a token armed for `purpose` is still pending. A peer
    /// holds a handful, so this is a scan.
    pub(crate) fn is_armed(&self, purpose: &P) -> bool
    where
        P: PartialEq,
    {
        self.armed.values().any(|p| p == purpose)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    fn racing() -> Race<u8> {
        let mut race = Race::new(7);
        race.candidates
            .insert(ep("10.1.1.3:4321"), CandidateKind::Private);
        race.candidates
            .insert(ep("138.76.29.7:31000"), CandidateKind::Public);
        race.candidates.next_volley(SimTime::ZERO);
        race.queue(Bytes::from_static(b"one"));
        race.queue(Bytes::from_static(b"two"));
        race
    }

    #[test]
    fn first_answer_settles_and_the_second_changes_nothing() {
        let mut race = racing();
        let won = race
            .win(1, ep("138.76.29.7:31000"), SimTime::ZERO)
            .expect("first answer settles");
        assert_eq!(won.winner_kind, Some(CandidateKind::Public));
        assert_eq!(won.probed, 2);
        assert_eq!(won.queued, [&b"one"[..], b"two"]);
        assert!(race.win(2, ep("10.1.1.3:4321"), SimTime::ZERO).is_none());
        assert_eq!(race.link(), Some(&1), "the winner stands");
        assert!(
            race.lose(true).is_none(),
            "an established session cannot lose"
        );
    }

    #[test]
    fn a_loss_hands_the_queue_to_the_relay_or_to_nobody() {
        let mut race = racing();
        let lost = race.lose(true).expect("punching");
        assert_eq!((lost.winner_kind, lost.queued.len()), (None, 2));
        assert!(matches!(race.phase, Phase::Relaying));
        assert!(race.lose(true).is_none(), "settled once");

        let mut race = racing();
        assert!(race.lose(false).expect("punching").queued.is_empty());
        assert!(matches!(race.phase, Phase::Failed));
        assert!(race
            .win(3, ep("10.1.1.3:4321"), SimTime::ZERO)
            .expect("a later answer still wins")
            .queued
            .is_empty());
    }

    #[test]
    fn only_a_session_with_nothing_fresh_to_race_awaits_an_introduction() {
        let mut race = Race::<u8>::new(7);
        assert!(race.awaits_introduction());
        race.candidates
            .insert(ep("138.76.29.7:31000"), CandidateKind::Public);
        assert!(!race.awaits_introduction());
        race.candidates.mark_stale();
        assert!(race.awaits_introduction());
        race.lose(false);
        assert!(!race.awaits_introduction());
    }

    #[test]
    fn homes_are_the_ring_owners_or_the_one_server() {
        let fleet: Vec<Endpoint> = (31..35)
            .map(|i| ep(&format!("18.181.0.{i}:1234")))
            .collect();
        assert_eq!(homes(fleet[0], &[], PeerId(7), 2), [fleet[0]]);
        let owners = punch_rendezvous::ring::owners(&fleet, PeerId(7), 2);
        assert_eq!(homes(fleet[0], &fleet, PeerId(7), 2), owners);
        assert_eq!(
            homes(fleet[0], &fleet, PeerId(7), 0).len(),
            1,
            "at least one home"
        );
    }

    #[test]
    fn a_timer_token_is_good_for_one_firing() {
        let mut timers = Timers::new();
        let (a, b) = (timers.arm("a"), timers.arm("b"));
        assert_ne!(a, b);
        assert_eq!(timers.fired(a), Some("a"));
        assert_eq!(timers.fired(a), None);
        assert_eq!(timers.fired(b), Some("b"));
    }

    #[test]
    fn a_purpose_is_armed_from_arm_until_its_token_fires() {
        let mut timers = Timers::new();
        assert!(!timers.is_armed(&"a"));
        let a = timers.arm("a");
        assert!(timers.is_armed(&"a"));
        assert!(!timers.is_armed(&"b"), "purposes are told apart");
        let b = timers.arm("b");
        assert_eq!(timers.fired(a), Some("a"));
        assert!(!timers.is_armed(&"a"));
        assert!(timers.is_armed(&"b"), "another purpose's firing leaves it pending");
        timers.fired(b);
        assert!(!timers.is_armed(&"b"));
    }
}
