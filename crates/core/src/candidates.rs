//! Candidate-set racing: the plan that decides *which* endpoints a punch
//! cycle probes, and in what order.
//!
//! The paper's §3.2 procedure sprays exactly two candidates — the peer's
//! private endpoint and its server-observed public endpoint — and §5.1
//! sketches predicting a symmetric NAT's next sequential allocation.
//! Modern traversal (ICE, libp2p's DCUtR) generalizes both ideas into a
//! *candidate set*: an ordered, deduplicated list of endpoints raced
//! concurrently, locked in by the first authenticated response.
//!
//! A [`CandidatePlan`] is the declarative half: an ordered list of
//! [`CandidateSource`]s (peer-private, peer-public, self-predicted
//! windows). `CandidateSet` is the per-session runtime half: the
//! materialized, endpoint-deduplicated list — the plan's candidates in
//! plan order, then the ports the peer announced — with per-candidate
//! first-probe / first-response stamps and the winner flag. Every volley
//! probes every candidate. Both the UDP and TCP punch paths race the same
//! structure. A predicting UDP client's own §5.1 state, from which its
//! `SelfPredicted` sources derive the ports it announces, is a `Predictor`.
//!
//! The default plan ([`CandidatePlan::basic`], private before public)
//! reproduces the paper's spray byte-for-byte; TCP races its peer's
//! public endpoint before the private one, the §4.2 simultaneous-open
//! connect order. Determinism: building and merging a candidate set
//! draws no randomness and performs no wall-clock reads, so outcomes are
//! byte-identical at any worker count.

use punch_net::flat::{self, FlatSet};
use punch_net::{Endpoint, SimTime};
use punch_rendezvous::PROBE_PORT;
use std::net::Ipv4Addr;

/// Where a candidate endpoint came from. Kinds label per-candidate
/// stamps, the `punch.winner_kind` metric, and race events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CandidateKind {
    /// The peer's private (pre-NAT) endpoint, from its registration.
    Private,
    /// The peer's server-observed public endpoint.
    Public,
    /// A predicted port (ours announced to the peer, or the peer's
    /// announced to us) from a [`PredictionStrategy`].
    Predicted,
}

impl CandidateKind {
    /// Stable lowercase label, used for metric label values.
    pub fn label(self) -> &'static str {
        match self {
            CandidateKind::Private => "private",
            CandidateKind::Public => "public",
            CandidateKind::Predicted => "predicted",
        }
    }
}

/// How predicted-port candidates are generated from the peer's
/// probe-port measurements (observed port and allocation stride, §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictionStrategy {
    /// The paper's §5.1 trick, generalized: the next `window` ports at
    /// the measured allocation stride, *accounting for allocations this
    /// endpoint has consumed since the stride was measured*. Needs the
    /// probe-port measurement (S's `PROBE_PORT`).
    SequentialDelta {
        /// How many future allocations to cover.
        window: u16,
    },
    /// Stride multiples from the measured probe port, *ignoring*
    /// consumed allocations — cheaper but drifts when the endpoint
    /// chatters with third parties. Needs the probe-port measurement.
    StrideMultiple {
        /// How many stride steps to cover.
        window: u16,
    },
    /// Ports around our *observed public* port, alternating +1, −1, +2,
    /// −2, … out to `radius`. Needs no probe measurement, so it is the
    /// only strategy with a chance against random-allocation NATs that
    /// scatter near the observed port.
    WindowAroundObserved {
        /// Largest offset probed on each side of the observed port.
        radius: u16,
    },
}

impl PredictionStrategy {
    /// Append this strategy's predicted ports to `out`, given the
    /// client's §5.1 state and its observed public port. Ports below
    /// 1024 are skipped — NATs do not allocate in the privileged range.
    fn ports(self, state: &Predictor, public_port: Option<u16>, out: &mut Vec<u16>) {
        match self {
            PredictionStrategy::SequentialDelta { window } => {
                let Some((probe, delta)) = state.stride else {
                    return;
                };
                if delta == 0 {
                    return;
                }
                let base = i32::from(probe);
                let consumed = state.consumed() as i32;
                for k in 1..=i32::from(window) {
                    // Modular arithmetic: NAT port pools wrap.
                    let p = (base + delta * (consumed + k)).rem_euclid(65536) as u16;
                    if p >= 1024 {
                        out.push(p);
                    }
                }
            }
            PredictionStrategy::StrideMultiple { window } => {
                let Some((probe, delta)) = state.stride else {
                    return;
                };
                if delta == 0 {
                    return;
                }
                let base = i32::from(probe);
                for k in 1..=i32::from(window) {
                    let p = (base + delta * k).rem_euclid(65536) as u16;
                    if p >= 1024 {
                        out.push(p);
                    }
                }
            }
            PredictionStrategy::WindowAroundObserved { radius } => {
                let Some(center) = public_port else {
                    return;
                };
                let c = i32::from(center);
                for k in 1..=i32::from(radius) {
                    for cand in [c + k, c - k] {
                        let p = cand.rem_euclid(65536) as u16;
                        if p >= 1024 && p != center {
                            out.push(p);
                        }
                    }
                }
            }
        }
    }
}

/// One source of candidate endpoints in a [`CandidatePlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateSource {
    /// The peer's private endpoint from the introduction (skipped when
    /// it equals the public endpoint — the peer is not behind a NAT).
    PeerPrivate,
    /// The peer's server-observed public endpoint from the introduction.
    PeerPublic,
    /// Ports *we* predict for our own NAT and announce to the peer over
    /// the relay control channel; the peer races them against our other
    /// candidates. Seats no local entry in our own set.
    SelfPredicted(PredictionStrategy),
}

/// Declarative candidate plan: which sources seed a punch cycle's race,
/// in race order. Candidates the peer announces (its predicted ports)
/// race after every planned one. Build with [`CandidatePlan::basic`] or
/// [`CandidatePlan::new`] and [`CandidatePlan::with_source`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct CandidatePlan {
    /// Candidate sources in race order.
    pub sources: Vec<CandidateSource>,
}

impl Default for CandidatePlan {
    fn default() -> Self {
        CandidatePlan::basic()
    }
}

impl CandidatePlan {
    /// An empty plan; add sources with [`CandidatePlan::with_source`].
    pub fn new() -> Self {
        CandidatePlan {
            sources: Vec::new(),
        }
    }

    /// The paper's §3.2 UDP plan: peer private then peer public. The
    /// default for `PunchConfig`.
    pub fn basic() -> Self {
        CandidatePlan::new()
            .with_source(CandidateSource::PeerPrivate)
            .with_source(CandidateSource::PeerPublic)
    }

    /// Append a candidate source; it races after every source already
    /// in the plan.
    pub fn with_source(mut self, source: CandidateSource) -> Self {
        self.sources.push(source);
        self
    }

    /// True when any source predicts ports (and so the race can go
    /// beyond the paper's private+public pair).
    pub(crate) fn has_predictions(&self) -> bool {
        self.sources
            .iter()
            .any(|s| matches!(s, CandidateSource::SelfPredicted(_)))
    }

    /// True when any prediction strategy needs the probe-port stride
    /// measurement: a `Ping` to S's `PROBE_PORT`, whose answer echoes
    /// the NAT's mapping toward that second port (§5.1).
    fn needs_probe(&self) -> bool {
        use PredictionStrategy::{SequentialDelta, StrideMultiple};
        self.sources.iter().any(|s| {
            matches!(
                s,
                CandidateSource::SelfPredicted(SequentialDelta { .. } | StrideMultiple { .. })
            )
        })
    }

    /// The ports this endpoint predicts for itself from its §5.1 state
    /// and its observed public port, concatenated over every
    /// `SelfPredicted` source in plan order, deduplicated keep-first.
    pub(crate) fn predicted_ports(&self, state: &Predictor, public_port: Option<u16>) -> Vec<u16> {
        let mut out = Vec::new();
        for source in &self.sources {
            if let CandidateSource::SelfPredicted(strategy) = *source {
                strategy.ports(state, public_port, &mut out);
            }
        }
        // Deduplicate keep-first: overlapping windows (or a window that
        // wraps onto itself) must not announce a port twice.
        let mut seen = Vec::with_capacity(out.len());
        out.retain(|p| {
            if seen.contains(p) {
                false
            } else {
                seen.push(*p);
                true
            }
        });
        out
    }
}

/// A predicting client's §5.1 state: its NAT's allocation stride,
/// measured against S's probe port, and the allocations spent since.
#[derive(Debug)]
pub(crate) struct Predictor {
    /// S's probe port on the first home server's address, when a
    /// strategy needs the stride.
    pub(crate) probe: Option<Endpoint>,
    /// The port the probe observed and its stride from the port S
    /// observed, once the probe has answered.
    pub(crate) stride: Option<(u16, i32)>,
    /// Destinations other than S with a presumed-live mapping: on a
    /// symmetric NAT each consumed one allocation when first contacted.
    dests: FlatSet<Endpoint>,
    /// Allocations spent on mappings that have since expired: a re-punch
    /// retires the dead race's destinations from `dests` into this
    /// count, because re-contacting them consumes *fresh* allocations —
    /// the allocator's cursor never moves backwards.
    expired: u32,
}

impl Predictor {
    pub(crate) fn new(plan: &CandidatePlan, server_ip: Ipv4Addr) -> Self {
        Predictor {
            probe: plan
                .needs_probe()
                .then(|| Endpoint::new(server_ip, PROBE_PORT)),
            stride: None,
            dests: FlatSet::default(),
            expired: 0,
        }
    }

    /// The probe's answer: it observed our mapping at `probed`, where S
    /// observes `public`.
    pub(crate) fn measured(&mut self, probed: Endpoint, public: Option<Endpoint>) {
        let stride = |main: Endpoint| i32::from(probed.port) - i32::from(main.port);
        self.stride = public.map(|main| (probed.port, stride(main)));
    }

    /// Notes a datagram to `to`, which is not a home server.
    pub(crate) fn sent(&mut self, to: Endpoint) {
        if Some(to) != self.probe {
            self.dests.insert(to);
        }
    }

    pub(crate) fn retire(&mut self, dest: Endpoint) {
        if self.dests.remove(&dest) {
            self.expired += 1;
        }
    }

    fn consumed(&self) -> u32 {
        self.dests.len() as u32 + self.expired
    }
}

/// Per-candidate race outcome: where the endpoint came from, when it was
/// first probed, when it first answered with an authenticated response,
/// and whether it won the race. Snapshots land in `RaceSettled` events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct CandidateStamp {
    /// The raced endpoint.
    pub endpoint: Endpoint,
    /// Which source seated it.
    pub kind: CandidateKind,
    /// When the first probe left for this endpoint.
    pub first_probe: Option<SimTime>,
    /// When the first authenticated response from it arrived.
    pub first_response: Option<SimTime>,
    /// Whether the session locked in on this endpoint.
    pub won: bool,
}

/// The materialized, per-session race state: the plan's candidates in
/// plan order, then the peer's announced ones, deduplicated by endpoint,
/// with per-candidate stamps. Shared by the UDP and TCP punch paths.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct CandidateSet {
    stamps: Vec<CandidateStamp>,
    /// True when the set was regenerated from a stale introduction
    /// (re-punch, §3.6) and a fresh introduction is still wanted.
    stale: bool,
}

impl CandidateSet {
    /// Materialize a plan's sources against an introduction's endpoints.
    /// The private candidate is seated only when it differs from the
    /// public one (private==public means the peer is not behind a NAT);
    /// `SelfPredicted` sources seat nothing locally — they govern the
    /// ports we announce (see [`CandidatePlan::predicted_ports`]).
    pub(crate) fn from_sources(
        sources: &[CandidateSource],
        public: Endpoint,
        private: Endpoint,
    ) -> Self {
        let mut set = CandidateSet::default();
        for source in sources {
            match source {
                CandidateSource::PeerPrivate => {
                    if private != public {
                        set.insert(private, CandidateKind::Private);
                    }
                }
                CandidateSource::PeerPublic => set.insert(public, CandidateKind::Public),
                CandidateSource::SelfPredicted(_) => {}
            }
        }
        set
    }

    /// Append one candidate unless its endpoint is already seated
    /// (keep-first: the earlier seat wins).
    pub(crate) fn insert(&mut self, endpoint: Endpoint, kind: CandidateKind) {
        if self.contains(endpoint) {
            return;
        }
        flat::push(
            &mut self.stamps,
            CandidateStamp {
                endpoint,
                kind,
                first_probe: None,
                first_response: None,
                won: false,
            },
        );
    }

    /// Append the candidates the peer announced (its predicted ports for
    /// one IP). Duplicates of already seated endpoints — including a
    /// predicted window overlapping the peer's observed public port —
    /// collapse away.
    pub(crate) fn merge_announced(&mut self, ip: Ipv4Addr, ports: impl IntoIterator<Item = u16>) {
        for port in ports {
            self.insert(Endpoint::new(ip, port), CandidateKind::Predicted);
        }
    }

    /// Every candidate, in race order, stamping first-probe times: each
    /// volley probes them all (§3.2's spray).
    pub(crate) fn next_volley(&mut self, now: SimTime) -> Vec<Endpoint> {
        self.stamps
            .iter_mut()
            .map(|s| {
                s.first_probe.get_or_insert(now);
                s.endpoint
            })
            .collect()
    }

    /// Record an authenticated response from `endpoint` (no-op for
    /// endpoints not in the set — e.g. a response from an address the
    /// NAT rewrote past every candidate).
    pub(crate) fn mark_response(&mut self, endpoint: Endpoint, now: SimTime) {
        if let Some(s) = self.stamps.iter_mut().find(|s| s.endpoint == endpoint) {
            s.first_response.get_or_insert(now);
        }
    }

    /// Lock the race winner, clearing any previous winner (a newer punch
    /// cycle can re-lock, §3.6). Returns the winning candidate's kind,
    /// or `None` when the winning address was never a listed candidate.
    pub(crate) fn mark_winner(&mut self, endpoint: Endpoint) -> Option<CandidateKind> {
        let mut kind = None;
        for s in &mut self.stamps {
            s.won = s.endpoint == endpoint;
            if s.won {
                kind = Some(s.kind);
            }
        }
        kind
    }

    /// Whether `endpoint` is a listed candidate.
    pub(crate) fn contains(&self, endpoint: Endpoint) -> bool {
        self.stamps.iter().any(|s| s.endpoint == endpoint)
    }

    /// Whether any candidate shares `ip` (TCP accept matching).
    pub(crate) fn any_ip(&self, ip: Ipv4Addr) -> bool {
        self.stamps.iter().any(|s| s.endpoint.ip == ip)
    }

    /// Snapshot of every candidate's stamp, in race order.
    pub(crate) fn stamps(&self) -> Vec<CandidateStamp> {
        self.stamps.clone()
    }

    /// Every candidate probed at least once, in race order.
    pub(crate) fn probed(&self) -> impl Iterator<Item = Endpoint> + '_ {
        self.stamps
            .iter()
            .filter(|s| s.first_probe.is_some())
            .map(|s| s.endpoint)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Mark the set as regenerated from a stale introduction: the punch
    /// keeps racing these endpoints, but every tick still re-requests a
    /// fresh introduction (and a fresh one rebuilds the set).
    pub(crate) fn mark_stale(&mut self) {
        self.stale = true;
    }

    pub(crate) fn is_stale(&self) -> bool {
        self.stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(s: &str) -> Endpoint {
        s.parse().expect("endpoint literal")
    }

    fn endpoints(set: &CandidateSet) -> Vec<Endpoint> {
        set.stamps().iter().map(|s| s.endpoint).collect()
    }

    fn from_plan(plan: &CandidatePlan, public: Endpoint, private: Endpoint) -> CandidateSet {
        CandidateSet::from_sources(&plan.sources, public, private)
    }

    /// §5.1 state with `stride` measured and `consumed` allocations
    /// spent since.
    fn state(stride: Option<(u16, i32)>, consumed: u32) -> Predictor {
        let mut state = Predictor::new(&predicting(4), Ipv4Addr::new(18, 181, 0, 31));
        state.stride = stride;
        state.expired = consumed;
        state
    }

    /// The paper's pair plus a sequential-delta window.
    fn predicting(window: u16) -> CandidatePlan {
        CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::SequentialDelta { window },
        ))
    }

    #[test]
    fn basic_plan_reproduces_paper_order_and_collapses_unnatted_private() {
        let public = ep("155.99.25.11:62000");
        let private = ep("10.0.0.1:4321");
        let set = from_plan(&CandidatePlan::basic(), public, private);
        assert_eq!(endpoints(&set), vec![private, public]);

        // private == public (no NAT): a single candidate, no duplicate.
        let set = from_plan(&CandidatePlan::basic(), public, public);
        assert_eq!(endpoints(&set), vec![public]);
    }

    #[test]
    fn sources_race_in_plan_order() {
        let public = ep("155.99.25.11:62000");
        let private = ep("10.0.0.1:4321");
        let order = [CandidateSource::PeerPublic, CandidateSource::PeerPrivate];
        let set = CandidateSet::from_sources(&order, public, private);
        assert_eq!(endpoints(&set), vec![public, private]);
    }

    #[test]
    fn a_two_candidate_race_holds_two_slots() {
        // The set lives as long as its session: 40 000 of them in the
        // benchmark's `crowd_udp`, each racing a private and a public
        // endpoint.
        let set = from_plan(
            &CandidatePlan::basic(),
            ep("155.99.25.11:62000"),
            ep("10.0.0.1:4321"),
        );
        assert_eq!(set.stamps.len(), 2);
        assert_eq!(set.stamps.capacity(), 2);
    }

    #[test]
    fn dedup_keeps_the_first_seat() {
        let mut set = CandidateSet::default();
        set.insert(ep("9.9.9.9:9000"), CandidateKind::Public);
        // The same endpoint announced later as a prediction collapses.
        set.merge_announced("9.9.9.9".parse().unwrap(), [9000, 9001]);
        let stamps = set.stamps();
        assert_eq!(stamps.len(), 2);
        assert_eq!(stamps[0].kind, CandidateKind::Public);
        assert_eq!(stamps[1].endpoint, ep("9.9.9.9:9001"));
    }

    #[test]
    fn sequential_delta_accounts_for_consumed_allocations() {
        let plan = CandidatePlan::new().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::SequentialDelta { window: 3 },
        ));
        assert_eq!(
            plan.predicted_ports(&state(Some((62001, 1)), 0), Some(62000)),
            vec![62002, 62003, 62004]
        );
        // One allocation consumed since measurement shifts the window.
        assert_eq!(
            plan.predicted_ports(&state(Some((62001, 1)), 1), Some(62000)),
            vec![62003, 62004, 62005]
        );
        // No measurement or zero stride: nothing to predict.
        assert!(plan
            .predicted_ports(&state(None, 0), Some(62000))
            .is_empty());
        assert!(plan
            .predicted_ports(&state(Some((62001, 0)), 0), None)
            .is_empty());
    }

    #[test]
    fn stride_multiple_ignores_consumed_allocations() {
        let plan = CandidatePlan::new().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::StrideMultiple { window: 3 },
        ));
        let ports = plan.predicted_ports(&state(Some((61000, 5)), 7), None);
        assert_eq!(ports, vec![61005, 61010, 61015]);
    }

    #[test]
    fn window_around_observed_alternates_and_skips_the_center() {
        let plan = CandidatePlan::new().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::WindowAroundObserved { radius: 2 },
        ));
        assert_eq!(
            plan.predicted_ports(&state(None, 0), Some(61000)),
            vec![61001, 60999, 61002, 60998]
        );
        assert!(plan.predicted_ports(&state(None, 0), None).is_empty());
    }

    #[test]
    fn overlapping_windows_deduplicate_keep_first() {
        let plan = CandidatePlan::new()
            .with_source(CandidateSource::SelfPredicted(
                PredictionStrategy::SequentialDelta { window: 2 },
            ))
            .with_source(CandidateSource::SelfPredicted(
                PredictionStrategy::WindowAroundObserved { radius: 2 },
            ));
        // Sequential predicts 62002, 62003; the window around 62001
        // predicts 62002, 62000, 62003, 61999 — overlaps collapse.
        assert_eq!(
            plan.predicted_ports(&state(Some((62001, 1)), 0), Some(62001)),
            vec![62002, 62003, 62000, 61999]
        );
    }

    #[test]
    fn predictions_skip_the_privileged_range() {
        let plan = CandidatePlan::new().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::SequentialDelta { window: 4 },
        ));
        for p in plan.predicted_ports(&state(Some((65535, 1)), 0), None) {
            assert!(p >= 1024, "predicted privileged port {p}");
        }
    }

    #[test]
    fn predicted_ports_respect_delta_and_consumed_allocs() {
        let plan = predicting(3);
        let public = ep("155.99.25.11:62000");
        let mut state = Predictor::new(&predicting(4), Ipv4Addr::new(18, 181, 0, 31));
        state.measured(ep("155.99.25.11:62001"), Some(public));
        assert_eq!(
            plan.predicted_ports(&state, Some(public.port)),
            vec![62002, 62003, 62004]
        );
        // One extra destination consumed one allocation.
        state.sent(ep("9.9.9.9:9"));
        assert_eq!(
            plan.predicted_ports(&state, Some(public.port)),
            vec![62003, 62004, 62005]
        );
    }

    #[test]
    fn predicted_ports_empty_without_measurement_or_with_zero_delta() {
        let plan = predicting(4);
        let mut state = Predictor::new(&predicting(4), Ipv4Addr::new(18, 181, 0, 31));
        assert!(plan.predicted_ports(&state, None).is_empty());
        let public = ep("155.99.25.11:62000");
        state.measured(ep("155.99.25.11:62000"), Some(public));
        assert!(
            plan.predicted_ports(&state, Some(public.port)).is_empty(),
            "cone NAT needs no prediction"
        );
    }

    #[test]
    fn predicted_ports_skip_privileged_range() {
        let plan = predicting(3);
        let public = ep("155.99.25.11:65534");
        let mut state = Predictor::new(&predicting(4), Ipv4Addr::new(18, 181, 0, 31));
        state.measured(ep("155.99.25.11:65535"), Some(public));
        // Wrapping past 65535 lands in low ports, which are filtered out.
        let ports = plan.predicted_ports(&state, Some(public.port));
        assert!(ports.iter().all(|&p| p >= 1024), "{ports:?}");
    }

    #[test]
    fn stamps_record_probe_response_and_winner() {
        let public = ep("155.99.25.11:62000");
        let private = ep("10.1.1.3:9000");
        let mut set = from_plan(&CandidatePlan::basic(), public, private);
        let t0 = SimTime::default();
        set.next_volley(t0);
        set.mark_response(public, t0);
        assert_eq!(set.mark_winner(public), Some(CandidateKind::Public));
        let stamps = set.stamps();
        assert!(stamps.iter().all(|s| s.first_probe.is_some()));
        let winner = stamps.iter().find(|s| s.won).unwrap();
        assert_eq!(winner.endpoint, public);
        assert_eq!(winner.first_response, Some(t0));
        // A response from an unlisted address is not a listed winner.
        assert_eq!(set.mark_winner(ep("8.8.8.8:53")), None);
    }

    #[test]
    fn plan_introspection_drives_probe_gating() {
        assert!(!CandidatePlan::basic().has_predictions());
        assert!(!CandidatePlan::basic().needs_probe());
        assert!(CandidatePlan::basic()
            .sources
            .contains(&CandidateSource::PeerPrivate));
        let predictive = CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::SequentialDelta { window: 4 },
        ));
        assert!(predictive.has_predictions() && predictive.needs_probe());
        let observed_only = CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::WindowAroundObserved { radius: 4 },
        ));
        assert!(observed_only.has_predictions() && !observed_only.needs_probe());
    }
}
