//! Candidate-set racing: the plan that decides *which* endpoints a punch
//! cycle probes, in what order, and how often.
//!
//! The paper's §3.2 procedure sprays exactly two candidates — the peer's
//! private endpoint and its server-observed public endpoint — and §5.1
//! sketches predicting a symmetric NAT's next sequential allocation.
//! Modern traversal (ICE, libp2p's DCUtR) generalizes both ideas into a
//! *candidate set*: a prioritized, deduplicated list of endpoints raced
//! concurrently, locked in by the first authenticated response.
//!
//! A [`CandidatePlan`] is the declarative half: an ordered list of
//! [`SourceSpec`]s (peer-private, peer-public, self-predicted windows),
//! each with a priority and a per-source probe pace. `CandidateSet` is
//! the per-session runtime half: the materialized, priority-ordered,
//! endpoint-deduplicated list with per-candidate first-probe /
//! first-response stamps and the winner flag. Both the UDP and TCP punch
//! paths race the same structure.
//!
//! The default plan ([`CandidatePlan::basic`], private before public at
//! pace 1) reproduces the paper's spray byte-for-byte; the TCP default
//! ([`CandidatePlan::basic_tcp`], public before private) reproduces the
//! §4.2 simultaneous-open connect order. Determinism: building, merging,
//! and pacing a candidate set draws no randomness and performs no
//! wall-clock reads, so outcomes are byte-identical at any worker count.

use punch_net::{Endpoint, SimTime};

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

/// How predicted-port candidates are generated from the classifier's
/// measurements (probe-port observation and allocation stride, §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictionStrategy {
    /// The paper's §5.1 trick, generalized: the next `window` ports at
    /// the measured allocation stride, *accounting for allocations this
    /// endpoint has consumed since the stride was measured*. Needs the
    /// probe-port measurement (server port + 1).
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
    /// True when this strategy needs the probe-port stride measurement
    /// (a registration with the server's port + 1, §5.1).
    pub fn needs_probe(self) -> bool {
        matches!(
            self,
            PredictionStrategy::SequentialDelta { .. } | PredictionStrategy::StrideMultiple { .. }
        )
    }

    /// Append this strategy's predicted ports to `out`, given the
    /// classifier's measurements. Ports below 1024 are skipped — NATs
    /// do not allocate in the privileged range.
    fn ports(
        self,
        probe_port: Option<u16>,
        delta: Option<i32>,
        public_port: Option<u16>,
        consumed: u32,
        out: &mut Vec<u16>,
    ) {
        match self {
            PredictionStrategy::SequentialDelta { window } => {
                let (Some(probe), Some(delta)) = (probe_port, delta) else {
                    return;
                };
                if delta == 0 {
                    return;
                }
                let base = i32::from(probe);
                let consumed = consumed as i32;
                for k in 1..=i32::from(window) {
                    // Modular arithmetic: NAT port pools wrap.
                    let p = (base + delta * (consumed + k)).rem_euclid(65536) as u16;
                    if p >= 1024 {
                        out.push(p);
                    }
                }
            }
            PredictionStrategy::StrideMultiple { window } => {
                let (Some(probe), Some(delta)) = (probe_port, delta) else {
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

/// A [`CandidateSource`] plus its race priority and probe pace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct SourceSpec {
    /// Where the endpoints come from.
    pub source: CandidateSource,
    /// Race priority: lower probes first within a volley. Ties keep
    /// plan order.
    pub priority: u8,
    /// Probe every `pace`-th volley (0 and 1 mean every volley). The
    /// first volley always probes everything.
    pub pace: u32,
}

impl SourceSpec {
    /// The peer's private endpoint at the paper's priority (first).
    pub fn private() -> Self {
        SourceSpec {
            source: CandidateSource::PeerPrivate,
            priority: 0,
            pace: 1,
        }
    }

    /// The peer's public endpoint at the paper's priority (second).
    pub fn public() -> Self {
        SourceSpec {
            source: CandidateSource::PeerPublic,
            priority: 1,
            pace: 1,
        }
    }

    /// A self-predicted port window announced to the peer.
    pub fn predicted(strategy: PredictionStrategy) -> Self {
        SourceSpec {
            source: CandidateSource::SelfPredicted(strategy),
            priority: 2,
            pace: 1,
        }
    }

    /// Override the race priority (lower probes first).
    fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

}

/// Declarative candidate plan: which sources seed a punch cycle's race,
/// at what priorities and paces, and how announced (peer-predicted)
/// candidates slot in. Build with [`CandidatePlan::basic`] /
/// [`CandidatePlan::basic_tcp`] / [`CandidatePlan::new`] and the
/// `with_*` builders.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct CandidatePlan {
    /// Candidate sources in plan order (ties in priority keep this
    /// order).
    pub sources: Vec<SourceSpec>,
    /// Priority given to candidates the *peer* announces over the relay
    /// control channel (its predicted ports).
    pub announced_priority: u8,
    /// Probe pace for announced candidates.
    pub announced_pace: u32,
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
            announced_priority: 2,
            announced_pace: 1,
        }
    }

    /// The paper's §3.2 UDP plan: peer private then peer public, every
    /// volley. The default for `PunchConfig`.
    pub fn basic() -> Self {
        CandidatePlan::new()
            .with_source(SourceSpec::private())
            .with_source(SourceSpec::public())
    }

    /// The §4.2 TCP plan: peer public then peer private (the historical
    /// simultaneous-open connect order). The default for
    /// `TcpPeerConfig`.
    pub fn basic_tcp() -> Self {
        CandidatePlan::new()
            .with_source(SourceSpec::public().with_priority(0))
            .with_source(SourceSpec::private().with_priority(1))
    }

    /// Append a candidate source.
    pub fn with_source(mut self, spec: SourceSpec) -> Self {
        self.sources.push(spec);
        self
    }

    /// True when any source predicts ports (and so the race can go
    /// beyond the paper's private+public pair).
    pub fn has_predictions(&self) -> bool {
        self.sources
            .iter()
            .any(|s| matches!(s.source, CandidateSource::SelfPredicted(_)))
    }

    /// True when any prediction strategy needs the probe-port stride
    /// measurement (a second registration at server port + 1, §5.1).
    pub fn needs_probe(&self) -> bool {
        self.sources.iter().any(|s| match s.source {
            CandidateSource::SelfPredicted(p) => p.needs_probe(),
            _ => false,
        })
    }

    /// The ports this endpoint predicts for itself and announces to the
    /// peer, concatenated over every `SelfPredicted` source in plan
    /// order, deduplicated keep-first, capped at 255 (the wire count is
    /// a single byte).
    pub fn predicted_ports(
        &self,
        probe_port: Option<u16>,
        delta: Option<i32>,
        public_port: Option<u16>,
        consumed: u32,
    ) -> Vec<u16> {
        let mut out = Vec::new();
        for spec in &self.sources {
            if let CandidateSource::SelfPredicted(strategy) = spec.source {
                strategy.ports(probe_port, delta, public_port, consumed, &mut out);
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
        out.truncate(255);
        out
    }
}

/// Per-candidate race outcome: where the endpoint came from, when it was
/// first probed, when it first answered with an authenticated response,
/// and whether it won the race. Snapshots land in
/// `PunchTimeline::candidates` and in `RaceSettled` events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct CandidateStamp {
    /// The raced endpoint.
    pub endpoint: Endpoint,
    /// Which source seated it.
    pub kind: CandidateKind,
    /// Its race priority (lower probes first).
    pub priority: u8,
    /// When the first probe left for this endpoint.
    pub first_probe: Option<SimTime>,
    /// When the first authenticated response from it arrived.
    pub first_response: Option<SimTime>,
    /// Whether the session locked in on this endpoint.
    pub won: bool,
}

/// One live entry in a [`CandidateSet`]: a stamp plus its probe pace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CandidateEntry {
    stamp: CandidateStamp,
    pace: u32,
}

/// The materialized, per-session race state: a priority-ordered,
/// endpoint-deduplicated candidate list with volley pacing and
/// per-candidate stamps. Shared by the UDP and TCP punch paths.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct CandidateSet {
    entries: Vec<CandidateEntry>,
    /// Volleys sprayed from this set so far (drives pacing).
    volleys: u32,
    /// True when the set was regenerated from a stale introduction
    /// (re-punch, §3.6) and a fresh introduction is still wanted.
    stale: bool,
}

impl CandidateSet {
    /// Materialize a plan against an introduction's endpoints. The
    /// private candidate is seated only when it differs from the public
    /// one (private==public means the peer is not behind a NAT);
    /// `SelfPredicted` sources seat nothing locally — they govern the
    /// ports we announce (see [`CandidatePlan::predicted_ports`]).
    pub(crate) fn from_plan(plan: &CandidatePlan, public: Endpoint, private: Endpoint) -> Self {
        let mut set = CandidateSet::default();
        for spec in &plan.sources {
            match spec.source {
                CandidateSource::PeerPrivate => {
                    if private != public {
                        set.insert(private, CandidateKind::Private, spec.priority, spec.pace);
                    }
                }
                CandidateSource::PeerPublic => {
                    set.insert(public, CandidateKind::Public, spec.priority, spec.pace);
                }
                CandidateSource::SelfPredicted(_) => {}
            }
        }
        set
    }

    /// Insert one candidate, keeping entries sorted by priority (stable
    /// within a priority class) and deduplicated by endpoint
    /// (keep-first: the earlier, higher-priority seat wins).
    pub(crate) fn insert(
        &mut self,
        endpoint: Endpoint,
        kind: CandidateKind,
        priority: u8,
        pace: u32,
    ) {
        if self.contains(endpoint) {
            return;
        }
        let at = self
            .entries
            .partition_point(|e| e.stamp.priority <= priority);
        self.entries.insert(
            at,
            CandidateEntry {
                stamp: CandidateStamp {
                    endpoint,
                    kind,
                    priority,
                    first_probe: None,
                    first_response: None,
                    won: false,
                },
                pace,
            },
        );
    }

    /// Merge candidates the peer announced (its predicted ports for one
    /// IP) at the plan's announced priority/pace. Duplicates of already
    /// seated endpoints — including a predicted window overlapping the
    /// peer's observed public port — collapse away.
    pub(crate) fn merge_announced(
        &mut self,
        ip: std::net::Ipv4Addr,
        ports: &[u16],
        priority: u8,
        pace: u32,
    ) {
        for &port in ports {
            self.insert(Endpoint::new(ip, port), CandidateKind::Predicted, priority, pace);
        }
    }

    /// The endpoints due in the next volley, in race order, stamping
    /// first-probe times. Volley 0 probes everything; after that an
    /// entry with pace `p > 1` is probed every `p`-th volley.
    pub(crate) fn next_volley(&mut self, now: SimTime) -> Vec<Endpoint> {
        let volley = self.volleys;
        self.volleys = self.volleys.wrapping_add(1);
        let mut due = Vec::new();
        for e in &mut self.entries {
            if e.pace <= 1 || volley.is_multiple_of(e.pace) {
                e.stamp.first_probe.get_or_insert(now);
                due.push(e.stamp.endpoint);
            }
        }
        due
    }

    /// Record an authenticated response from `endpoint` (no-op for
    /// endpoints not in the set — e.g. a response from an address the
    /// NAT rewrote past every candidate).
    pub(crate) fn mark_response(&mut self, endpoint: Endpoint, now: SimTime) {
        for e in &mut self.entries {
            if e.stamp.endpoint == endpoint {
                e.stamp.first_response.get_or_insert(now);
                return;
            }
        }
    }

    /// Lock the race winner, clearing any previous winner (a newer punch
    /// cycle can re-lock, §3.6). Returns the winning candidate's kind,
    /// or `None` when the winning address was never a listed candidate.
    pub(crate) fn mark_winner(&mut self, endpoint: Endpoint) -> Option<CandidateKind> {
        let mut kind = None;
        for e in &mut self.entries {
            e.stamp.won = e.stamp.endpoint == endpoint;
            if e.stamp.won {
                kind = Some(e.stamp.kind);
            }
        }
        kind
    }

    /// All candidate endpoints in race order.
    /// Whether `endpoint` is a listed candidate.
    pub(crate) fn contains(&self, endpoint: Endpoint) -> bool {
        self.entries.iter().any(|e| e.stamp.endpoint == endpoint)
    }

    /// Whether any candidate shares `ip` (TCP accept matching).
    pub(crate) fn any_ip(&self, ip: std::net::Ipv4Addr) -> bool {
        self.entries.iter().any(|e| e.stamp.endpoint.ip == ip)
    }

    /// Snapshot of every candidate's stamp, in race order.
    pub(crate) fn stamps(&self) -> Vec<CandidateStamp> {
        self.entries.iter().map(|e| e.stamp).collect()
    }

    /// How many candidates have been probed at least once.
    pub(crate) fn probed_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.stamp.first_probe.is_some())
            .count()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        // punch-lint: allow(P001) test-only literal parse
        s.parse().expect("endpoint literal")
    }

    fn endpoints(set: &CandidateSet) -> Vec<Endpoint> {
        set.stamps().iter().map(|s| s.endpoint).collect()
    }

    #[test]
    fn basic_plan_reproduces_paper_order_and_collapses_unnatted_private() {
        let public = ep("155.99.25.11:62000");
        let private = ep("10.0.0.1:4321");
        let set = CandidateSet::from_plan(&CandidatePlan::basic(), public, private);
        assert_eq!(endpoints(&set), vec![private, public]);

        // private == public (no NAT): a single candidate, no duplicate.
        let set = CandidateSet::from_plan(&CandidatePlan::basic(), public, public);
        assert_eq!(endpoints(&set), vec![public]);
    }

    #[test]
    fn basic_tcp_plan_connects_public_first() {
        let public = ep("155.99.25.11:62000");
        let private = ep("10.0.0.1:4321");
        let set = CandidateSet::from_plan(&CandidatePlan::basic_tcp(), public, private);
        assert_eq!(endpoints(&set), vec![public, private]);
    }

    #[test]
    fn priorities_order_the_race_and_ties_keep_plan_order() {
        let mut set = CandidateSet::default();
        set.insert(ep("1.1.1.1:1111"), CandidateKind::Predicted, 2, 1);
        set.insert(ep("2.2.2.2:2222"), CandidateKind::Public, 0, 1);
        set.insert(ep("3.3.3.3:3333"), CandidateKind::Predicted, 2, 1);
        set.insert(ep("4.4.4.4:4444"), CandidateKind::Private, 1, 1);
        assert_eq!(
            endpoints(&set),
            vec![
                ep("2.2.2.2:2222"),
                ep("4.4.4.4:4444"),
                ep("1.1.1.1:1111"),
                ep("3.3.3.3:3333"),
            ]
        );
    }

    #[test]
    fn dedup_keeps_the_first_seat() {
        let mut set = CandidateSet::default();
        set.insert(ep("9.9.9.9:9000"), CandidateKind::Public, 1, 1);
        // The same endpoint announced later as a prediction collapses.
        set.merge_announced("9.9.9.9".parse().unwrap(), &[9000, 9001], 2, 1);
        let stamps = set.stamps();
        assert_eq!(stamps.len(), 2);
        assert_eq!(stamps[0].kind, CandidateKind::Public);
        assert_eq!(stamps[1].endpoint, ep("9.9.9.9:9001"));
    }

    #[test]
    fn pacing_skips_volleys_but_first_volley_probes_everything() {
        let mut set = CandidateSet::default();
        set.insert(ep("1.1.1.1:1000"), CandidateKind::Public, 0, 1);
        set.insert(ep("2.2.2.2:2000"), CandidateKind::Predicted, 1, 3);
        let t = SimTime::default();
        assert_eq!(set.next_volley(t).len(), 2); // volley 0: everything
        assert_eq!(set.next_volley(t).len(), 1); // volley 1: paced out
        assert_eq!(set.next_volley(t).len(), 1); // volley 2: paced out
        assert_eq!(set.next_volley(t).len(), 2); // volley 3: due again
    }

    #[test]
    fn sequential_delta_accounts_for_consumed_allocations() {
        let plan =
            CandidatePlan::new().with_source(SourceSpec::predicted(
                PredictionStrategy::SequentialDelta { window: 3 },
            ));
        assert_eq!(
            plan.predicted_ports(Some(62001), Some(1), Some(62000), 0),
            vec![62002, 62003, 62004]
        );
        // One allocation consumed since measurement shifts the window.
        assert_eq!(
            plan.predicted_ports(Some(62001), Some(1), Some(62000), 1),
            vec![62003, 62004, 62005]
        );
        // No measurement or zero stride: nothing to predict.
        assert!(plan.predicted_ports(None, Some(1), Some(62000), 0).is_empty());
        assert!(plan.predicted_ports(Some(62001), Some(0), None, 0).is_empty());
    }

    #[test]
    fn stride_multiple_ignores_consumed_allocations() {
        let plan = CandidatePlan::new().with_source(SourceSpec::predicted(
            PredictionStrategy::StrideMultiple { window: 3 },
        ));
        let ports = plan.predicted_ports(Some(61000), Some(5), None, 7);
        assert_eq!(ports, vec![61005, 61010, 61015]);
    }

    #[test]
    fn window_around_observed_alternates_and_skips_the_center() {
        let plan = CandidatePlan::new().with_source(SourceSpec::predicted(
            PredictionStrategy::WindowAroundObserved { radius: 2 },
        ));
        assert_eq!(
            plan.predicted_ports(None, None, Some(61000), 0),
            vec![61001, 60999, 61002, 60998]
        );
        assert!(plan.predicted_ports(None, None, None, 0).is_empty());
    }

    #[test]
    fn overlapping_windows_deduplicate_keep_first() {
        let plan = CandidatePlan::new()
            .with_source(SourceSpec::predicted(PredictionStrategy::SequentialDelta {
                window: 2,
            }))
            .with_source(SourceSpec::predicted(PredictionStrategy::WindowAroundObserved {
                radius: 2,
            }));
        // Sequential predicts 62002, 62003; the window around 62001
        // predicts 62002, 62000, 62003, 61999 — overlaps collapse.
        assert_eq!(
            plan.predicted_ports(Some(62001), Some(1), Some(62001), 0),
            vec![62002, 62003, 62000, 61999]
        );
    }

    #[test]
    fn predictions_skip_the_privileged_range() {
        let plan = CandidatePlan::new().with_source(SourceSpec::predicted(
            PredictionStrategy::SequentialDelta { window: 4 },
        ));
        for p in plan.predicted_ports(Some(65535), Some(1), None, 0) {
            assert!(p >= 1024, "predicted privileged port {p}");
        }
    }

    #[test]
    fn stamps_record_probe_response_and_winner() {
        let public = ep("155.99.25.11:62000");
        let private = ep("10.1.1.3:9000");
        let mut set = CandidateSet::from_plan(&CandidatePlan::basic(), public, private);
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
        assert!(CandidatePlan::basic().sources.contains(&SourceSpec::private()));
        let predictive = CandidatePlan::basic().with_source(SourceSpec::predicted(
            PredictionStrategy::SequentialDelta { window: 4 },
        ));
        assert!(predictive.has_predictions() && predictive.needs_probe());
        let observed_only = CandidatePlan::basic().with_source(SourceSpec::predicted(
            PredictionStrategy::WindowAroundObserved { radius: 4 },
        ));
        assert!(observed_only.has_predictions() && !observed_only.needs_probe());
    }
}
