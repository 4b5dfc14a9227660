//! Configuration for the hole-punching endpoints.
//!
//! A public field here is a value some caller other than a test sets
//! to a second value. What only a named profile changes is a private
//! field the profile sets (see [`PunchConfig::resilient`]), and what
//! nothing varies is a constant of the endpoint that reads it (see
//! [`TcpPeerConfig`]).

use crate::candidates::CandidatePlan;
use punch_net::Endpoint;
use punch_rendezvous::PeerId;
use std::time::Duration;

/// Tunables for UDP hole punching (§3).
///
/// Construct via [`PunchConfig::default`] or [`PunchConfig::resilient`]
/// and set the public fields by assignment. The recovery settings only
/// the resilient profile changes (miss-based liveness, automatic
/// re-punching, the backoff cap and the relay probe) are private: the
/// profile is the knob.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct PunchConfig {
    /// Interval between probe volleys while punching.
    pub spray_interval: Duration,
    /// Probe volleys before the punch is declared failed.
    pub max_attempts: u32,
    /// Keepalive interval for established sessions (§3.6).
    pub keepalive_interval: Duration,
    /// A session with no inbound traffic for this long is considered
    /// dead; the next send triggers an on-demand re-punch (§3.6).
    pub session_timeout: Duration,
    /// Fall back to relaying through S when punching fails (§2.2).
    pub relay_fallback: bool,
    /// The candidate race: which endpoints each punch cycle probes, in
    /// what order, and which port-prediction windows this endpoint
    /// announces. The default ([`CandidatePlan::basic`]) is the paper's
    /// §3.2 private+public pair.
    pub plan: CandidatePlan,
    /// Liveness detection: declare an established session dead after
    /// this many keepalive intervals with no inbound traffic, without
    /// waiting for the full `session_timeout`. `0` disables miss-based
    /// detection (the default, and the paper's baseline behaviour).
    pub(crate) keepalive_miss_limit: u32,
    /// Re-punch immediately when an established session dies, instead
    /// of waiting for the application's next send (§3.6's on-demand
    /// repair is the default).
    pub(crate) auto_repunch: bool,
    /// Multiplier applied to `spray_interval` per failed volley
    /// (exponential backoff). `1.0` keeps the paper's constant cadence.
    pub backoff: f64,
    /// Upper bound for the backoff-inflated volley interval.
    pub(crate) backoff_max: Duration,
    /// Fraction of the volley interval added as seeded random jitter
    /// (`0.0` = none), de-synchronising retry storms after an outage.
    pub backoff_jitter: f64,
    /// While relaying, retry a direct punch this often and upgrade the
    /// session if it succeeds. `None` (the default) never probes: once
    /// relaying, the session stays relayed.
    pub(crate) relay_probe_interval: Option<Duration>,
}

impl Default for PunchConfig {
    fn default() -> Self {
        PunchConfig {
            spray_interval: Duration::from_millis(500),
            max_attempts: 10,
            keepalive_interval: Duration::from_secs(15),
            session_timeout: Duration::from_secs(60),
            relay_fallback: true,
            plan: CandidatePlan::basic(),
            keepalive_miss_limit: 0,
            auto_repunch: false,
            backoff: 1.0,
            backoff_max: Duration::from_secs(10),
            backoff_jitter: 0.0,
            relay_probe_interval: None,
        }
    }
}

impl PunchConfig {
    /// A chaos-hardened profile: aggressive liveness detection, instant
    /// re-punching with jittered exponential backoff, and periodic
    /// relay-to-direct probing. Used by the fault-injection tests and
    /// the chaos experiment; the default profile stays the paper's.
    pub fn resilient() -> Self {
        PunchConfig {
            keepalive_miss_limit: 3,
            auto_repunch: true,
            backoff: 2.0,
            backoff_max: Duration::from_secs(8),
            backoff_jitter: 0.1,
            relay_probe_interval: Some(Duration::from_secs(5)),
            ..PunchConfig::default()
        }
    }

    /// Same configuration with a different candidate plan.
    pub fn with_plan(mut self, plan: CandidatePlan) -> Self {
        self.plan = plan;
        self
    }
}

/// Configuration for a UDP hole-punching client.
///
/// Construct via [`UdpPeerConfig::new`] or [`UdpPeerConfig::resilient`]
/// and set fields by assignment, before the client is built. It is a
/// profile: clients that differ only in their ids share one behind an
/// `Arc` ([`crate::UdpPeer::from_profile`]), each keeping its own id,
/// and nothing writes a profile once a client holds it.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct UdpPeerConfig {
    /// This client's identity, read by [`crate::UdpPeer::new`]; a shared
    /// profile's is ignored.
    pub id: PeerId,
    /// The well-known rendezvous server.
    pub server: Endpoint,
    /// Registration retry interval until S acknowledges.
    pub register_retry: Duration,
    /// How often to re-register with S once registered. This keeps both
    /// S's record and the NAT mapping toward S alive (the §3.6 keepalive
    /// requirement applies to the rendezvous session too).
    pub server_keepalive: Duration,
    /// Punching behaviour.
    pub punch: PunchConfig,
    /// The rendezvous fleet, when S is not a single server: every
    /// member's public endpoint, in the same order on every client and
    /// server. Empty (the default) means `server` is the only S. With
    /// a fleet, the client registers with its `replication` ring
    /// owners and fails over between them.
    pub fleet: Vec<Endpoint>,
    /// How many of the fleet's ring owners to register with (k of n).
    pub replication: usize,
}

impl UdpPeerConfig {
    /// A sensible default configuration for `id` against `server`.
    pub fn new(id: PeerId, server: Endpoint) -> Self {
        UdpPeerConfig {
            id,
            server,
            register_retry: Duration::from_secs(2),
            server_keepalive: Duration::from_secs(15),
            punch: PunchConfig::default(),
            fleet: Vec::new(),
            replication: 2,
        }
    }

    /// The chaos-hardened client the fault-injection tests and the chaos,
    /// attack and fleet experiments run: [`PunchConfig::resilient`] with
    /// 1 s peer keepalives, and a 2 s server keepalive with 1 s
    /// registration retries so a lost registration is noticed quickly.
    pub fn resilient(id: PeerId, server: Endpoint) -> Self {
        let mut punch = PunchConfig::resilient();
        punch.keepalive_interval = Duration::from_secs(1);
        UdpPeerConfig {
            register_retry: Duration::from_secs(1),
            server_keepalive: Duration::from_secs(2),
            punch,
            ..UdpPeerConfig::new(id, server)
        }
    }

    /// Same configuration registering with `replication` ring owners
    /// of a server fleet instead of the single `server`.
    ///
    /// # Panics
    ///
    /// Panics if `replication` is zero.
    pub fn with_fleet(mut self, fleet: Vec<Endpoint>, replication: usize) -> Self {
        assert!(replication > 0, "replication must be positive");
        self.fleet = fleet;
        self.replication = replication;
        self
    }
}

/// Which TCP punching procedure to run (§4.2 vs §4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TcpPunchMode {
    /// §4.2: both sides connect and listen simultaneously.
    #[default]
    Parallel,
    /// §4.5 (NatTrav-style) sequential variant: the responder first makes
    /// a doomed `connect()` to open its NAT hole, waits `doomed_wait`,
    /// then signals the initiator (via S) to connect. More
    /// timing-dependent and slower in the common case, as the paper
    /// observes — experiment E8 quantifies it.
    Sequential {
        /// How long the responder waits for its doomed SYN to traverse
        /// its NATs before signalling the initiator. Too little risks a
        /// lost SYN derailing the punch; too much inflates latency.
        doomed_wait: Duration,
    },
}

/// Configuration for a TCP hole-punching client.
///
/// Construct via [`TcpPeerConfig::new`] and set fields by assignment.
/// What the paper fixes is not configurable: endpoint addresses in
/// message bodies are always obfuscated (§3.1), a failed connect is
/// re-tried after one second (§4.2 step 4) up to eight times per
/// candidate, candidates are connected to public endpoint first (§4.2),
/// a punch that has not won within 30 s falls back to relaying through
/// S (§2.2), and the client talks to the one server `server`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct TcpPeerConfig {
    /// This client's identity.
    pub id: PeerId,
    /// The well-known rendezvous server.
    pub server: Endpoint,
    /// Local TCP port (0 = ephemeral). Per §4.2, the *same* local port is
    /// used for the connection to S, the listen socket, and all outgoing
    /// punch attempts (requires `SO_REUSEADDR`/`SO_REUSEPORT`).
    pub local_port: u16,
    /// Parallel (§4.2) or sequential (§4.5) procedure. Both sides of a
    /// punch must agree on the mode.
    pub mode: TcpPunchMode,
}

impl TcpPeerConfig {
    /// A sensible default configuration for `id` against `server`.
    pub fn new(id: PeerId, server: Endpoint) -> Self {
        TcpPeerConfig {
            id,
            server,
            local_port: 0,
            mode: TcpPunchMode::Parallel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSource;

    #[test]
    fn defaults_are_papers_recommendations() {
        let u = UdpPeerConfig::new(PeerId(1), "18.181.0.31:1234".parse().unwrap());
        assert!(
            u.punch.plan.sources.contains(&CandidateSource::PeerPrivate),
            "§3.3: try private endpoints too"
        );
        assert_eq!(
            u.punch.plan,
            CandidatePlan::basic(),
            "default plan is the paper's §3.2 pair"
        );
    }

    #[test]
    fn default_recovery_knobs_preserve_paper_behaviour() {
        let p = PunchConfig::default();
        assert_eq!(p.keepalive_miss_limit, 0, "miss detection is opt-in");
        assert!(!p.auto_repunch, "§3.6 repairs on demand by default");
        assert_eq!(p.backoff, 1.0, "constant cadence by default");
        assert_eq!(p.backoff_jitter, 0.0, "no extra RNG draws by default");
        assert_eq!(p.relay_probe_interval, None);
    }

    #[test]
    fn resilient_profile_enables_recovery() {
        let p = PunchConfig::resilient();
        assert!(p.auto_repunch);
        assert!(p.keepalive_miss_limit > 0);
        assert!(p.backoff > 1.0);
        assert!(p.relay_probe_interval.is_some());
        let u = UdpPeerConfig::resilient(PeerId(1), "18.181.0.31:1234".parse().unwrap());
        let d = UdpPeerConfig::new(u.id, u.server);
        assert!(u.punch.auto_repunch && u.punch.keepalive_interval < d.punch.keepalive_interval);
        assert!(u.server_keepalive < d.server_keepalive && u.register_retry < d.register_retry);
    }
}
