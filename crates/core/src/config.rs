//! Configuration for the hole-punching endpoints.

use crate::candidates::CandidatePlan;
use punch_net::Endpoint;
use punch_rendezvous::PeerId;
use std::time::Duration;

/// Tunables for UDP hole punching (§3).
///
/// Construct via [`PunchConfig::default`] or [`PunchConfig::resilient`]
/// and set fields by assignment.
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
    /// what priority order, at what pace, and which port-prediction
    /// windows this endpoint announces. The default
    /// ([`CandidatePlan::basic`]) is the paper's §3.2 private+public
    /// pair.
    pub plan: CandidatePlan,
    /// Liveness detection: declare an established session dead after
    /// this many keepalive intervals with no inbound traffic, without
    /// waiting for the full `session_timeout`. `0` disables miss-based
    /// detection (the default, and the paper's baseline behaviour).
    pub keepalive_miss_limit: u32,
    /// Re-punch immediately when an established session dies, instead
    /// of waiting for the application's next send (§3.6's on-demand
    /// repair is the default).
    pub auto_repunch: bool,
    /// Multiplier applied to `spray_interval` per failed volley
    /// (exponential backoff). `1.0` keeps the paper's constant cadence.
    pub backoff: f64,
    /// Upper bound for the backoff-inflated volley interval.
    pub backoff_max: Duration,
    /// Fraction of the volley interval added as seeded random jitter
    /// (`0.0` = none), de-synchronising retry storms after an outage.
    pub backoff_jitter: f64,
    /// While relaying, retry a direct punch this often and upgrade the
    /// session if it succeeds. `None` (the default) never probes: once
    /// relaying, the session stays relayed.
    pub relay_probe_interval: Option<Duration>,
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
/// and set fields by assignment.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct UdpPeerConfig {
    /// This client's identity.
    pub id: PeerId,
    /// The well-known rendezvous server.
    pub server: Endpoint,
    /// Local UDP port (0 = ephemeral). The same socket talks to S and to
    /// every peer.
    pub local_port: u16,
    /// Obfuscate endpoint addresses in message bodies (§3.1).
    pub obfuscate: bool,
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
            local_port: 0,
            obfuscate: true,
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
    /// Obfuscate endpoint addresses in message bodies.
    pub obfuscate: bool,
    /// §4.2 step 4: delay before re-trying a connection attempt that
    /// failed with a network error ("e.g., one second"); also the delay
    /// before reconnecting a lost control connection to S.
    pub retry_delay: Duration,
    /// Maximum re-tries per candidate endpoint.
    pub max_retries: u32,
    /// Overall deadline for one punch attempt.
    pub punch_deadline: Duration,
    /// The candidate race: which endpoints each punch attempt connects
    /// to and in what order. The default ([`CandidatePlan::basic_tcp`])
    /// is the §4.2 public-then-private connect order. TCP has no relay
    /// control channel yet, so predicted sources seat no candidates.
    pub plan: CandidatePlan,
    /// Parallel (§4.2) or sequential (§4.5) procedure. Both sides of a
    /// punch must agree on the mode.
    pub mode: TcpPunchMode,
    /// Fall back to relaying data frames through S when the punch fails
    /// (§2.2: "a useful fall-back strategy if maximum robustness is
    /// desired").
    pub relay_fallback: bool,
    /// The rendezvous fleet (see [`UdpPeerConfig::fleet`]). A TCP
    /// client holds one control connection at a time and reconnects to
    /// the next ring owner when it fails.
    pub fleet: Vec<Endpoint>,
    /// How many ring owners form the failover chain (k of n).
    pub replication: usize,
}

impl TcpPeerConfig {
    /// A sensible default configuration for `id` against `server`.
    pub fn new(id: PeerId, server: Endpoint) -> Self {
        TcpPeerConfig {
            id,
            server,
            local_port: 0,
            obfuscate: true,
            retry_delay: Duration::from_secs(1),
            max_retries: 8,
            punch_deadline: Duration::from_secs(30),
            plan: CandidatePlan::basic_tcp(),
            mode: TcpPunchMode::Parallel,
            relay_fallback: true,
            fleet: Vec::new(),
            replication: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{PredictionStrategy, SourceSpec};

    #[test]
    fn defaults_are_papers_recommendations() {
        let c = TcpPeerConfig::new(PeerId(1), "18.181.0.31:1234".parse().unwrap());
        assert_eq!(
            c.retry_delay,
            Duration::from_secs(1),
            "§4.2 step 4 short delay"
        );
        let u = UdpPeerConfig::new(PeerId(1), "18.181.0.31:1234".parse().unwrap());
        assert!(
            u.punch.plan.sources.contains(&SourceSpec::private()),
            "§3.3: try private endpoints too"
        );
        assert!(u.obfuscate, "§3.1: obfuscate addresses in bodies");
        assert_eq!(
            u.punch.plan,
            CandidatePlan::basic(),
            "default plan is the paper's §3.2 pair"
        );
        assert_eq!(
            c.plan,
            CandidatePlan::basic_tcp(),
            "default TCP plan is the §4.2 connect order"
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
    fn plans_compose_sources_priorities_and_pacing() {
        let mut plan = CandidatePlan::basic().with_source(SourceSpec {
            priority: 3,
            pace: 2,
            ..SourceSpec::predicted(PredictionStrategy::WindowAroundObserved { radius: 8 })
        });
        plan.announced_priority = 1;
        plan.announced_pace = 2;
        let mut u = UdpPeerConfig::new(PeerId(1), "18.181.0.31:1234".parse().unwrap());
        u.punch = PunchConfig::default().with_plan(plan.clone());
        assert_eq!(u.punch.plan, plan);
        assert_eq!(u.punch.plan.sources[2].priority, 3);
        assert_eq!(u.punch.plan.sources[2].pace, 2);
        assert_eq!(u.punch.plan.announced_priority, 1);
        assert!(u.punch.plan.has_predictions());
        assert!(!u.punch.plan.needs_probe(), "window-around-observed needs no probe");
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
