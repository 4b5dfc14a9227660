//! The rendezvous server *S* (§3.1), with TURN-style relaying (§2.2) and
//! connection-reversal signalling (§2.3).
//!
//! One server app speaks the protocol over both transports at the same
//! well-known port: a UDP socket for UDP hole punching, and a TCP listener
//! for TCP hole punching. The protocol does not depend on what carries
//! it, so every client request runs through one handler; the transport
//! only decides where a reply goes (a `Route`) and which of the two
//! registration tables a request reads. Registrations are kept per
//! transport because a client's UDP and TCP public endpoints are distinct
//! NAT mappings, but both tables hold the same `Reg` record. A fleet
//! member forwards a UDP request for a peer it does not hold to that
//! peer's ring owners; a TCP request is answered from its own table.
//!
//! Endpoints in everything the server sends are obfuscated (§3.1), and
//! the §5.1 mapping-probe port [`PROBE_PORT`] is always served.

use crate::peer::PeerId;
use crate::wire::{
    decode_signed, encode_frame, encode_signed, FrameBuf, Message, WireError, AUTH_TAG_LEN,
    ERR_TABLE_FULL, ERR_UNKNOWN_PEER,
};
use bytes::Bytes;
use punch_net::flat::KeyMap;
use punch_net::{Counters, Endpoint, MetricKey, SimTime};
use punch_transport::{App, Os, SockEvent, SocketId};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Duration;

/// The server's well-known port (§3.1), for both UDP and TCP service.
pub const SERVER_PORT: u16 = 1234;

/// The §5.1 mapping-probe port, on the server's address beside
/// [`SERVER_PORT`]: it answers a [`Message::Ping`] with a
/// [`Message::RegisterAck`] echoing the observed source, which a
/// predicting client uses to measure its NAT's port-allocation stride.
/// An overflowing `SERVER_PORT` fails to compile.
pub const PROBE_PORT: u16 = SERVER_PORT + 1;

/// Rendezvous server configuration.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Maximum registrations kept per transport. A registration flood
    /// past the cap evicts the least-recently-active registration
    /// (deterministically — by activity sequence number, not map
    /// iteration order) instead of growing server memory without bound.
    pub max_clients: usize,
    /// The full fleet this server belongs to (every member's public
    /// endpoint, in the same order on every server and client). Empty
    /// or singleton means standalone operation: no forwarding, no
    /// server-to-server traffic — byte-identical to the pre-fleet
    /// server.
    pub fleet: Vec<Endpoint>,
    /// This server's position in [`ServerConfig::fleet`].
    pub fleet_index: usize,
    /// How many ring owners hold each peer's registration (k of n).
    /// Only consulted when forwarding: the owner chain for a missing
    /// target is the target's first `replication` ring owners.
    pub replication: usize,
    /// The per-source rate limit ([`ServerConfig::defended`]).
    rate_limit: bool,
    /// Protect-active eviction: a registration refreshed within this
    /// window is never the eviction victim; when every entry in a full
    /// table is protected, the *newcomer* is refused
    /// ([`crate::wire::ERR_TABLE_FULL`]) instead. `None` (the default)
    /// keeps pure oldest-first eviction, under which a squatting storm
    /// bigger than the table evicts even actively-refreshing clients.
    /// [`ServerConfig::defended`] sets 5 s. The window stays a field
    /// because the model test in `tests/server.rs` sweeps 50 ms: its
    /// runs are too short for any entry to age out of 5 s.
    pub protect_active: Option<Duration>,
    /// Shared fleet secret: when set, server-to-server messages carry an
    /// [`AUTH_TAG_LEN`]-byte keyed tag and `Srv*` messages that arrive
    /// unsigned or mis-signed are rejected, closing the rogue-forgery
    /// hole (source-endpoint checks alone fall to spoofed sources).
    /// `None` (the default) trusts source endpoints, as PR 7's fleet did.
    pub fleet_secret: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_clients: 4096,
            fleet: Vec::new(),
            fleet_index: 0,
            replication: 2,
            rate_limit: false,
            protect_active: None,
            fleet_secret: None,
        }
    }
}

impl ServerConfig {
    /// Same configuration with a different per-transport registration
    /// cap.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn with_max_clients(mut self, max: usize) -> Self {
        assert!(max > 0, "max_clients must be positive");
        self.max_clients = max;
        self
    }

    /// Same configuration as member `index` of `fleet`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for a non-empty fleet.
    pub fn with_fleet(mut self, fleet: Vec<Endpoint>, index: usize) -> Self {
        assert!(
            fleet.is_empty() || index < fleet.len(),
            "fleet_index {index} out of bounds for fleet of {}",
            fleet.len()
        );
        self.fleet = fleet;
        self.fleet_index = index;
        self
    }

    /// Same configuration with a different k-of-n replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn with_replication(mut self, k: usize) -> Self {
        assert!(k > 0, "replication must be positive");
        self.replication = k;
        self
    }

    /// Same configuration with the control-plane defenses on (EC3):
    /// protect-active eviction with a 5 s window, and a per-source-IP
    /// token bucket on the main UDP socket that admits 25 datagrams per
    /// second (capacity one second's tokens). Off, the server serves every datagram (the paper's
    /// implicit model), so an introduction or registration flood from
    /// one source costs the same as legitimate traffic.
    pub fn defended(mut self) -> Self {
        self.rate_limit = true;
        self.protect_active = Some(Duration::from_secs(5));
        self
    }

    /// Same configuration with a shared fleet secret for authenticated
    /// server-to-server messages.
    pub fn with_fleet_secret(mut self, secret: u64) -> Self {
        self.fleet_secret = Some(secret);
        self
    }
}

/// Server-side counters (used by the relay-load experiment E12).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Registrations accepted (UDP + TCP).
    pub registrations: u64,
    /// Introduction pairs performed.
    pub introductions: u64,
    /// Relayed messages.
    pub relayed_msgs: u64,
    /// Relayed payload bytes.
    pub relayed_bytes: u64,
    /// Reversal requests forwarded.
    pub reversals: u64,
    /// Requests that failed (unknown peer, unparsable).
    pub errors: u64,
    /// Scripted restarts endured (registrations dropped each time).
    pub restarts: u64,
    /// Registrations evicted because the table hit
    /// [`ServerConfig::max_clients`].
    pub evictions: u64,
    /// Introductions forwarded to another fleet shard (sent
    /// [`Message::SrvIntroduce`], including owner-chain retries).
    pub forwards: u64,
    /// Forwarded introductions this shard served as the target's owner.
    pub forwards_served: u64,
    /// Forwarded introductions that exhausted the target's owner chain.
    pub forward_errors: u64,
    /// Datagrams refused by the per-source token bucket
    /// ([`ServerConfig::defended`]).
    pub rate_limited: u64,
    /// Registrations refused because every slot was protected-active
    /// ([`ServerConfig::protect_active`]).
    pub reg_refused: u64,
    /// Server-to-server messages rejected for a missing or unverifiable
    /// authentication tag ([`ServerConfig::fleet_secret`]).
    pub auth_rejected: u64,
}

impl ServerStats {
    /// Accumulates another server's counters (fleet-wide totals).
    pub fn add(&mut self, other: &ServerStats) {
        self.registrations += other.registrations;
        self.introductions += other.introductions;
        self.relayed_msgs += other.relayed_msgs;
        self.relayed_bytes += other.relayed_bytes;
        self.reversals += other.reversals;
        self.errors += other.errors;
        self.restarts += other.restarts;
        self.evictions += other.evictions;
        self.forwards += other.forwards;
        self.forwards_served += other.forwards_served;
        self.forward_errors += other.forward_errors;
        self.rate_limited += other.rate_limited;
        self.reg_refused += other.reg_refused;
        self.auth_rejected += other.auth_rejected;
    }
}


/// Where a reply goes — and with it which registration table and metric
/// label a request selects. Everything else about a request is the same
/// on both transports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// A datagram from the main UDP socket to this endpoint.
    Udp(Endpoint),
    /// A frame on this accepted connection.
    Tcp(SocketId),
}

impl Route {
    fn tcp(self) -> bool {
        matches!(self, Route::Tcp(_))
    }

    /// The transport label on per-transport metrics.
    fn label(self) -> &'static str {
        match self {
            Route::Udp(_) => "udp",
            Route::Tcp(_) => "tcp",
        }
    }
}

/// One registration, in either table.
#[derive(Clone, Copy, Debug)]
struct Reg {
    /// How to reach the client: its public UDP endpoint, or the
    /// connection it registered on.
    route: Route,
    public: Endpoint,
    private: Endpoint,
    /// Activity stamp: refreshed on every registration or request from
    /// the client, so a full table evicts the least-recently-active
    /// entry, never a chatty long-lived one.
    seq: u64,
    /// Wall time of the last activity, for the protect-active window
    /// (the relative `seq` ordering cannot express "recent enough").
    last_active: SimTime,
}

// A server holds up to `max_clients` of these per table (100 000 in the
// benchmark's `server_storm`), so the record stays small and inline.
const _: () = assert!(std::mem::size_of::<Reg>() <= 40);

/// Endpoints in message bodies are always obfuscated (§3.1), so replies
/// survive payload-mangling NATs (§5.3); the flag byte in front of each
/// endpoint lets any client decode them.
const OBFUSCATE: bool = true;

/// Token-bucket state for one source IP, in micro-tokens (one datagram
/// costs [`MICRO`]; integer arithmetic keeps refills deterministic).
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: u64,
    last: SimTime,
}

/// Micro-tokens per datagram.
const MICRO: u64 = 1_000_000;

/// Datagrams per second one source IP may send a defended server
/// ([`ServerConfig::defended`]); a bucket holds one second's tokens.
const RATE_LIMIT: u64 = 25;

/// An introduction forwarded to the target's owning shard, awaiting
/// its [`Message::SrvIntroduceReply`] / [`Message::SrvIntroduceErr`].
struct PendingIntro {
    /// The requester's registration when it asked: where the answer
    /// goes, and the endpoints each forward carries.
    requester: Reg,
    /// When the first forward left — the `rendezvous.introduce_forward` histogram
    /// observes reply minus this, across the whole retry chain.
    sent_at: punch_net::SimTime,
    /// The target's owner chain (self excluded), tried in order.
    owners: Vec<Endpoint>,
    /// Owners tried so far (index of the one in flight).
    tried: usize,
    /// Activity stamp for deterministic capping of the pending table.
    seq: u64,
}

#[derive(Default)]
struct ConnState {
    frames: FrameBuf,
    peer: Option<PeerId>,
}

/// The rendezvous server application. Run it on a public host:
///
/// ```
/// use punch_net::{LinkSpec, Sim};
/// use punch_rendezvous::{RendezvousServer, ServerConfig};
/// use punch_transport::{HostDevice, StackConfig};
///
/// let mut sim = Sim::new(0);
/// let s = sim.add_node(
///     "S",
///     Box::new(HostDevice::new(
///         [18, 181, 0, 31].into(),
///         StackConfig::default(),
///         RendezvousServer::new(ServerConfig::default()),
///     )),
/// );
/// let stats = sim.device::<HostDevice<RendezvousServer>>(s).app::<RendezvousServer>().stats();
/// assert_eq!(stats.registrations, 0);
/// ```
pub struct RendezvousServer {
    cfg: ServerConfig,
    udp_sock: Option<SocketId>,
    probe_sock: Option<SocketId>,
    /// Clients registered over UDP; every entry's route is a
    /// `Route::Udp`. The two registration tables are only looked up,
    /// or reduced to a unique minimum, so they are `KeyMap`s.
    udp_clients: KeyMap<PeerId, Reg>,
    /// Clients registered over TCP; every entry's route is a
    /// `Route::Tcp`.
    tcp_clients: KeyMap<PeerId, Reg>,
    /// Ordered: a restart aborts the connections in socket order.
    conns: BTreeMap<SocketId, ConnState>,
    /// Cross-shard introductions in flight, keyed by
    /// `(requester, target, nonce)`.
    pending: BTreeMap<(u64, u64, u64), PendingIntro>,
    /// Per-source-IP token buckets ([`ServerConfig::defended`]).
    buckets: BTreeMap<Ipv4Addr, Bucket>,
    /// `buckets.len()` past which an admitted datagram sweeps the map:
    /// `max_clients`, or twice what the last sweep left if that is more.
    sweep_above: usize,
    stats: ServerStats,
    /// Monotone activity counter shared by both transports; stamps
    /// make the eviction victim (unique minimum) independent of the
    /// tables' iteration order.
    reg_seq: u64,
}

impl RendezvousServer {
    /// Creates the server app.
    pub fn new(cfg: ServerConfig) -> Self {
        RendezvousServer {
            sweep_above: cfg.max_clients,
            cfg,
            udp_sock: None,
            probe_sock: None,
            udp_clients: KeyMap::default(),
            tcp_clients: KeyMap::default(),
            conns: BTreeMap::new(),
            pending: BTreeMap::new(),
            buckets: BTreeMap::new(),
            stats: ServerStats::default(),
            reg_seq: 0,
        }
    }

    /// Returns server counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Returns a UDP-registered client's endpoints (tests).
    // punch-lint: allow(S005) §3.1 registration state, read by rendezvous/tests/server.rs, core/tests/peer_contract.rs and lab's eviction suites
    pub fn udp_registration(&self, peer: PeerId) -> Option<(Endpoint, Endpoint)> {
        self.udp_clients.get(&peer).map(|r| (r.public, r.private))
    }

    /// Returns a TCP-registered client's endpoints (tests).
    // punch-lint: allow(S005) §4.1 registration state, read by rendezvous/tests/server.rs and core/tests/peer_contract.rs
    pub fn tcp_registration(&self, peer: PeerId) -> Option<(Endpoint, Endpoint)> {
        self.tcp_clients.get(&peer).map(|r| (r.public, r.private))
    }

    /// The registration table of one transport.
    fn table(&mut self, tcp: bool) -> &mut KeyMap<PeerId, Reg> {
        if tcp {
            &mut self.tcp_clients
        } else {
            &mut self.udp_clients
        }
    }

    /// Draws the next activity stamp.
    fn next_seq(&mut self) -> u64 {
        let seq = self.reg_seq;
        self.reg_seq += 1;
        seq
    }

    /// Refreshes a client's activity stamp (request traffic counts as
    /// life; see the eviction policy on [`Reg`]) and returns its
    /// registration. An unknown peer draws no stamp.
    fn touch(&mut self, tcp: bool, peer: PeerId, now: SimTime) -> Option<Reg> {
        let seq = self.reg_seq;
        let reg = self.table(tcp).get_mut(&peer)?;
        reg.seq = seq;
        reg.last_active = now;
        let reg = *reg;
        self.reg_seq += 1;
        Some(reg)
    }

    /// Admits or refuses one datagram from `from` through the
    /// per-source token bucket. Always admits when the limiter is off.
    fn rate_allow(&mut self, os: &mut Os<'_, '_>, from: Endpoint) -> bool {
        if !self.cfg.rate_limit {
            return true;
        }
        let now = os.now();
        let cap = RATE_LIMIT * MICRO;
        let b = self.buckets.entry(from.ip).or_insert(Bucket {
            tokens: cap,
            last: now,
        });
        let elapsed =
            u64::try_from(now.saturating_since(b.last).as_nanos()).unwrap_or(u64::MAX);
        // RATE_LIMIT tokens/s = RATE_LIMIT × MICRO micro-tokens per 1e9 ns.
        b.tokens = b
            .tokens
            .saturating_add(elapsed.saturating_mul(RATE_LIMIT) / 1000)
            .min(cap);
        b.last = now;
        if b.tokens >= MICRO {
            b.tokens -= MICRO;
            // Bound the bucket map: once it outgrows the client table and
            // has doubled since the last sweep, drop sources whose bucket
            // has (or by now would have) refilled completely — forgetting
            // them loses nothing. Sweeping only on doubling keeps a
            // spoofed-source flood at O(1) amortised per datagram.
            if self.buckets.len() > self.sweep_above {
                self.buckets.retain(|_, b| {
                    let refill = u64::try_from(now.saturating_since(b.last).as_nanos())
                        .unwrap_or(u64::MAX)
                        .saturating_mul(RATE_LIMIT)
                        / 1000;
                    b.tokens.saturating_add(refill) < cap
                });
                self.sweep_above = self.cfg.max_clients.max(2 * self.buckets.len());
            }
            true
        } else {
            self.stats.rate_limited += 1;
            false
        }
    }

    /// This server's own fleet endpoint, when it is part of a fleet.
    fn self_endpoint(&self) -> Option<Endpoint> {
        self.cfg.fleet.get(self.cfg.fleet_index).copied()
    }

    /// True when cross-shard forwarding is in play: a fleet of at
    /// least two members that this server belongs to.
    fn fleet_routable(&self) -> bool {
        self.cfg.fleet.len() >= 2 && self.cfg.fleet_index < self.cfg.fleet.len()
    }

    /// True when `from` is another member of this server's fleet —
    /// the only senders whose server-to-server messages are honored.
    fn is_fleet_peer(&self, from: Endpoint) -> bool {
        self.fleet_routable()
            && Some(from) != self.self_endpoint()
            && self.cfg.fleet.contains(&from)
    }

    /// The target's owner chain with this server itself filtered out —
    /// where a missing registration may live.
    fn owner_chain(&self, target: PeerId) -> Vec<Endpoint> {
        let me = self.self_endpoint();
        crate::ring::owners(&self.cfg.fleet, target, self.cfg.replication)
            .into_iter()
            .filter(|e| Some(*e) != me)
            .collect()
    }

    /// Caps the pending-forward table like the registration tables:
    /// deterministic oldest-first eviction at `max_clients` entries.
    fn evict_oldest_pending(&mut self, os: &mut Os<'_, '_>) {
        if self.pending.len() < self.cfg.max_clients {
            return;
        }
        let victim = self
            .pending
            .iter()
            .min_by_key(|(key, p)| (p.seq, **key))
            .map(|(key, _)| *key);
        if let Some(key) = victim {
            self.pending.remove(&key);
            self.stats.forward_errors += 1;
            os.metric_inc_labeled("rendezvous.forward", "evict");
        }
    }

    /// Makes room for a new registration when its table is full by
    /// evicting the oldest *evictable* entry. The victim is the unique
    /// minimum `(seq, peer_id)`, so the choice never depends on the
    /// table's iteration order. Returns `false` when every entry is
    /// protected-active ([`ServerConfig::protect_active`]) — the
    /// newcomer must be refused instead.
    fn make_room(&mut self, os: &mut Os<'_, '_>, tcp: bool) -> bool {
        if self.table(tcp).len() < self.cfg.max_clients {
            return true;
        }
        let now = os.now();
        let window = self.cfg.protect_active;
        let victim = self
            .table(tcp)
            .iter()
            .filter(|(_, r)| window.is_none_or(|w| now.saturating_since(r.last_active) >= w))
            .min_by_key(|(id, r)| (r.seq, id.0))
            .map(|(&id, r)| (id, r.route));
        let Some((id, route)) = victim else {
            self.stats.reg_refused += 1;
            return false;
        };
        self.table(tcp).remove(&id);
        // A TCP victim's connection stays open (it may re-register);
        // only its registration slot is reclaimed.
        if let Route::Tcp(sock) = route {
            if let Some(conn) = self.conns.get_mut(&sock) {
                conn.peer = None;
            }
        }
        self.stats.evictions += 1;
        os.metric_inc_labeled("rendezvous.evict", route.label());
        true
    }

    fn send(&self, os: &mut Os<'_, '_>, to: Route, msg: &Message) {
        match to {
            Route::Udp(ep) => {
                if let Some(sock) = self.udp_sock {
                    let _ = os.udp_send(sock, ep, msg.encode(OBFUSCATE));
                }
            }
            Route::Tcp(sock) => {
                let _ = os.tcp_send(sock, encode_frame(msg, OBFUSCATE));
            }
        }
    }

    /// Sends a server-to-server message, signed when the fleet shares a
    /// secret (wire bytes are identical to [`Self::send`] otherwise).
    fn send_srv(&self, os: &mut Os<'_, '_>, to: Endpoint, msg: &Message) {
        match self.cfg.fleet_secret {
            Some(secret) => {
                if let Some(sock) = self.udp_sock {
                    let _ = os.udp_send(sock, to, encode_signed(msg, OBFUSCATE, secret));
                }
            }
            None => self.send(os, Route::Udp(to), msg),
        }
    }

    /// Fails a request that named a peer nobody here (or, in a fleet,
    /// anywhere) knows, and tells `to` so.
    fn refuse(&mut self, os: &mut Os<'_, '_>, to: Route) {
        self.stats.errors += 1;
        self.send(
            os,
            to,
            &Message::ErrorReply {
                code: ERR_UNKNOWN_PEER,
            },
        );
    }

    /// Gate for inbound `Srv*` messages: with a fleet secret configured,
    /// only datagrams that carried a verified tag are honored; and in
    /// any case only those from another member of this server's fleet.
    fn srv_admit(&mut self, from: Endpoint, signed: bool) -> bool {
        if self.cfg.fleet_secret.is_some() && !signed {
            self.stats.auth_rejected += 1;
            return false;
        }
        if !self.is_fleet_peer(from) {
            self.stats.errors += 1;
            return false;
        }
        true
    }

    /// A datagram on the main socket: the four server-to-server messages
    /// are handled here, anything else is a client request.
    fn handle_udp(&mut self, os: &mut Os<'_, '_>, from: Endpoint, msg: Message, signed: bool) {
        match msg {
            Message::SrvIntroduce {
                requester,
                requester_public,
                requester_private,
                target,
                nonce,
            } => {
                if !self.srv_admit(from, signed) {
                    return;
                }
                // Owner side of a forwarded introduction: if the target
                // is registered here, introduce it to the requester
                // directly and return its endpoints to the forwarding
                // shard; otherwise report the miss so the forwarder can
                // try the next owner.
                let Some(tgt) = self.udp_clients.get(&target).copied() else {
                    os.metric_inc_labeled("rendezvous.forward", "miss");
                    self.send_srv(
                        os,
                        from,
                        &Message::SrvIntroduceErr {
                            requester,
                            target,
                            nonce,
                        },
                    );
                    return;
                };
                self.send(
                    os,
                    tgt.route,
                    &Message::Introduce {
                        peer: requester,
                        public: requester_public,
                        private: requester_private,
                        nonce,
                        initiator: false,
                    },
                );
                self.stats.forwards_served += 1;
                self.send_srv(
                    os,
                    from,
                    &Message::SrvIntroduceReply {
                        requester,
                        target,
                        target_public: tgt.public,
                        target_private: tgt.private,
                        nonce,
                    },
                );
            }
            Message::SrvIntroduceReply {
                requester,
                target,
                target_public,
                target_private,
                nonce,
            } => {
                if !self.srv_admit(from, signed) {
                    return;
                }
                // Forwarder side, success path: the owner introduced the
                // target; complete the requester's half of the pair.
                let Some(p) = self.pending.remove(&(requester.0, target.0, nonce)) else {
                    return; // duplicate or late reply; the pair already resolved
                };
                os.metric_observe("rendezvous.introduce_forward", os.now().saturating_since(p.sent_at));
                // The pair counts once, at the shard that fielded the
                // client's request (the owner counted forwards_served).
                self.stats.introductions += 1;
                os.metric_inc_labeled("rendezvous.introduce", p.requester.route.label());
                self.send(
                    os,
                    p.requester.route,
                    &Message::Introduce {
                        peer: target,
                        public: target_public,
                        private: target_private,
                        nonce,
                        initiator: true,
                    },
                );
            }
            Message::SrvIntroduceErr {
                requester,
                target,
                nonce,
            } => {
                if !self.srv_admit(from, signed) {
                    return;
                }
                // Forwarder side, miss path: try the target's next ring
                // owner, or give the requester a definitive answer.
                let key = (requester.0, target.0, nonce);
                let Some(mut p) = self.pending.remove(&key) else {
                    return;
                };
                p.tried += 1;
                if let Some(&next) = p.owners.get(p.tried) {
                    self.stats.forwards += 1;
                    os.metric_inc_labeled("rendezvous.forward", "retry");
                    let fwd = Message::SrvIntroduce {
                        requester,
                        requester_public: p.requester.public,
                        requester_private: p.requester.private,
                        target,
                        nonce,
                    };
                    self.pending.insert(key, p);
                    self.send_srv(os, next, &fwd);
                } else {
                    self.stats.forward_errors += 1;
                    os.metric_inc_labeled("rendezvous.forward", "err");
                    self.refuse(os, p.requester.route);
                }
            }
            Message::SrvRelay {
                from: sender,
                target,
                data,
            } => {
                if !self.srv_admit(from, signed) {
                    return;
                }
                // Owner side of a forwarded relay payload: deliver if the
                // target is here, otherwise drop (relay is periodic; the
                // sender's next payload retries the, possibly changed,
                // ring).
                match self.udp_clients.get(&target).copied() {
                    Some(tgt) => self.relay(os, tgt.route, sender, data),
                    None => os.metric_inc_labeled("rendezvous.forward", "relay-miss"),
                }
            }
            request => self.handle_client(os, Route::Udp(from), request),
        }
    }

    /// One client request, over either transport. `via` is where it
    /// arrived: it selects the table, and it is where a requester the
    /// server does not know is answered (a registered one is answered on
    /// its registered route).
    fn handle_client(&mut self, os: &mut Os<'_, '_>, via: Route, msg: Message) {
        let tcp = via.tcp();
        let now = os.now();
        match msg {
            Message::Register { peer_id, private } => {
                let public = match via {
                    Route::Udp(from) => from,
                    Route::Tcp(sock) => match os.remote_endpoint(sock) {
                        Ok(remote) => remote,
                        Err(_) => return,
                    },
                };
                let reg = Reg {
                    route: via,
                    public,
                    private,
                    seq: self.reg_seq,
                    last_active: now,
                };
                // A refresh overwrites its record where the one search
                // finds it; only a newcomer needs room made.
                match self.table(tcp).get_mut(&peer_id) {
                    Some(known) => *known = reg,
                    None => {
                        if !self.make_room(os, tcp) {
                            // Every slot is held by a protected-active
                            // client; the newcomer — not an active
                            // client — loses, and draws no stamp.
                            self.send(
                                os,
                                via,
                                &Message::ErrorReply {
                                    code: ERR_TABLE_FULL,
                                },
                            );
                            return;
                        }
                        self.table(tcp).insert(peer_id, reg);
                    }
                }
                self.reg_seq += 1;
                if let Route::Tcp(sock) = via {
                    if let Some(conn) = self.conns.get_mut(&sock) {
                        conn.peer = Some(peer_id);
                    }
                }
                self.stats.registrations += 1;
                os.metric_inc_labeled("rendezvous.register", via.label());
                self.send(os, via, &Message::RegisterAck { public });
            }
            Message::ConnectRequest {
                peer_id,
                target,
                nonce,
            } => {
                let Some(req) = self.touch(tcp, peer_id, now) else {
                    return self.refuse(os, via);
                };
                let Some(tgt) = self.table(tcp).get(&target).copied() else {
                    // Not ours: in a fleet a UDP target may be registered
                    // on its owning shard; otherwise it's simply unknown.
                    if self.fleet_routable() && !tcp {
                        self.forward_introduce(os, peer_id, req, target, nonce);
                    } else {
                        self.refuse(os, via);
                    }
                    return;
                };
                self.stats.introductions += 1;
                os.metric_inc_labeled("rendezvous.introduce", via.label());
                // §3.2 step 2: both sides learn each other's endpoints.
                self.send(
                    os,
                    req.route,
                    &Message::Introduce {
                        peer: target,
                        public: tgt.public,
                        private: tgt.private,
                        nonce,
                        initiator: true,
                    },
                );
                self.send(
                    os,
                    tgt.route,
                    &Message::Introduce {
                        peer: peer_id,
                        public: req.public,
                        private: req.private,
                        nonce,
                        initiator: false,
                    },
                );
            }
            Message::RelayData {
                from: sender,
                target,
                data,
            } => {
                self.touch(tcp, sender, now);
                let Some(tgt) = self.table(tcp).get(&target).copied() else {
                    // Best-effort in a fleet: hand a UDP payload to the
                    // target's primary owner; no reply, no retry chain
                    // (relay traffic is periodic, the next send retries).
                    let owner = if self.fleet_routable() && !tcp {
                        self.owner_chain(target).first().copied()
                    } else {
                        None
                    };
                    let Some(owner) = owner else {
                        return self.refuse(os, via);
                    };
                    os.metric_inc_labeled("rendezvous.forward", "relay");
                    self.send_srv(
                        os,
                        owner,
                        &Message::SrvRelay {
                            from: sender,
                            target,
                            data,
                        },
                    );
                    return;
                };
                self.relay(os, tgt.route, sender, data);
            }
            Message::ReversalRequest {
                peer_id,
                target,
                nonce,
            } => {
                // Reversal stays shard-local by design: it only helps when
                // the target is unNATed and reachable, and those targets
                // register with every owner anyway (k-of-n).
                let req = self.touch(tcp, peer_id, now);
                let (Some(req), Some(tgt)) = (req, self.table(tcp).get(&target).copied()) else {
                    return self.refuse(os, via);
                };
                self.stats.reversals += 1;
                self.send(
                    os,
                    tgt.route,
                    &Message::ReversalRequested {
                        from: peer_id,
                        public: req.public,
                        private: req.private,
                        nonce,
                    },
                );
            }
            // A liveness echo: S keeps no state for it. A client stays
            // live by re-registering (§3.6).
            Message::Ping => self.send(os, via, &Message::Pong),
            // Peer-to-peer and server-to-client messages are not for us,
            // nor is a server-to-server one on a client connection.
            _ => self.stats.errors += 1,
        }
    }

    /// Delivers a relayed payload (§2.2) to a registered target.
    fn relay(&mut self, os: &mut Os<'_, '_>, to: Route, sender: PeerId, data: Bytes) {
        self.stats.relayed_msgs += 1;
        self.stats.relayed_bytes += data.len() as u64;
        os.metric_inc_labeled("rendezvous.relay.msgs", to.label());
        os.metric_inc_by("rendezvous.relay.bytes", data.len() as u64);
        self.send(os, to, &Message::RelayedData { from: sender, data });
    }

    /// Forwards a registered UDP requester's introduction to the first
    /// owner of a target this shard does not hold.
    fn forward_introduce(
        &mut self,
        os: &mut Os<'_, '_>,
        requester: PeerId,
        req: Reg,
        target: PeerId,
        nonce: u64,
    ) {
        let owners = self.owner_chain(target);
        let Some(&first) = owners.first() else {
            // Every owner of the target is this very server — the
            // registration genuinely does not exist anywhere.
            return self.refuse(os, req.route);
        };
        let key = (requester.0, target.0, nonce);
        if !self.pending.contains_key(&key) {
            self.evict_oldest_pending(os);
        }
        let seq = self.next_seq();
        self.pending.insert(
            key,
            PendingIntro {
                requester: req,
                sent_at: os.now(),
                owners,
                tried: 0,
                seq,
            },
        );
        self.stats.forwards += 1;
        os.metric_inc_labeled("rendezvous.forward", "sent");
        self.send_srv(
            os,
            first,
            &Message::SrvIntroduce {
                requester,
                requester_public: req.public,
                requester_private: req.private,
                target,
                nonce,
            },
        );
    }

    fn drop_conn(&mut self, sock: SocketId) {
        if let Some(conn) = self.conns.remove(&sock) {
            if let Some(peer) = conn.peer {
                // Only drop the registration if it still points at this
                // connection (the client may have re-registered).
                if self.tcp_clients.get(&peer).map(|r| r.route) == Some(Route::Tcp(sock)) {
                    self.tcp_clients.remove(&peer);
                }
            }
        }
    }
}

impl App for RendezvousServer {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        #[expect(clippy::expect_used, reason = "well-known server port on a fresh host; collision is a setup bug")]
        let udp_sock = os.udp_bind(SERVER_PORT).expect("server UDP port free");
        self.udp_sock = Some(udp_sock);
        #[expect(clippy::expect_used, reason = "well-known probe port on a fresh host; collision is a setup bug")]
        let probe_sock = os.udp_bind(PROBE_PORT).expect("server probe port free");
        self.probe_sock = Some(probe_sock);
        #[expect(clippy::expect_used, reason = "well-known server port on a fresh host; collision is a setup bug")]
        os.tcp_listen(SERVER_PORT, false).expect("server TCP port free");
    }

    fn counters(&self, c: &mut Counters<'_>) {
        let s = &self.stats;
        c.inc_by(MetricKey::plain("defense.rendezvous.rate_limited"), s.rate_limited);
        c.inc_by(MetricKey::plain("defense.rendezvous.reg_refused"), s.reg_refused);
        c.inc_by(MetricKey::plain("defense.rendezvous.auth_rejected"), s.auth_rejected);
        c.inc_by(MetricKey::plain("rendezvous.error"), s.errors);
        c.inc_by(MetricKey::labeled("rendezvous.forward", "served"), s.forwards_served);
        c.inc_by(MetricKey::plain("rendezvous.reversal"), s.reversals);
        c.inc_by(MetricKey::plain("rendezvous.restart"), s.restarts);
    }

    fn on_fault(&mut self, os: &mut Os<'_, '_>, fault: u64) {
        if fault == punch_net::FAULT_RESTART {
            // A restarted server keeps its ports (same bind on boot) but
            // has an empty registration table and no connections; clients
            // discover this only when their next request goes unanswered
            // or their connection aborts.
            self.stats.restarts += 1;
            for sock in std::mem::take(&mut self.conns).into_keys() {
                let _ = os.tcp_abort(sock);
            }
            self.tcp_clients.clear();
            self.udp_clients.clear();
            self.pending.clear();
        }
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::UdpReceived { sock, from, data } if Some(sock) == self.probe_sock => {
                // Only a client's Ping gets the observed source, from the
                // probe's own endpoint: answering anything would let one
                // datagram spoofed from a probe set probes echoing forever.
                if matches!(Message::decode(&data), Ok(Message::Ping)) {
                    let reply = Message::RegisterAck { public: from };
                    let _ = os.udp_send(sock, from, reply.encode(OBFUSCATE));
                }
            }
            SockEvent::UdpReceived { from, data, .. } => {
                if !self.rate_allow(os, from) {
                    return;
                }
                match Message::decode(&data) {
                    Ok(msg) => self.handle_udp(os, from, msg, false),
                    // With a fleet secret, an 8-byte tail may be a signed
                    // server-to-server message: verify the tag before
                    // honoring it, and treat verification failure as a
                    // forgery, not a codec error.
                    Err(WireError::TrailingBytes(AUTH_TAG_LEN)) => {
                        match self.cfg.fleet_secret.map(|s| decode_signed(&data, s)) {
                            Some(Ok(msg)) => self.handle_udp(os, from, msg, true),
                            Some(Err(_)) => {
                                self.stats.auth_rejected += 1;
                            }
                            None => self.stats.errors += 1,
                        }
                    }
                    Err(_) => self.stats.errors += 1,
                }
            }
            SockEvent::TcpIncoming { listener } => {
                while let Ok(Some((conn, _remote))) = os.tcp_accept(listener) {
                    self.conns.insert(conn, ConnState::default());
                }
            }
            SockEvent::TcpReceived { sock, data } => {
                let Some(conn) = self.conns.get_mut(&sock) else {
                    return;
                };
                conn.frames.push(&data);
                while let Some(next) = self
                    .conns
                    .get_mut(&sock)
                    .and_then(|c| c.frames.next_message())
                {
                    match next {
                        Ok(msg) => self.handle_client(os, Route::Tcp(sock), msg),
                        Err(_) => {
                            self.stats.errors += 1;
                            let _ = os.tcp_abort(sock);
                            self.drop_conn(sock);
                            break;
                        }
                    }
                }
            }
            SockEvent::TcpPeerClosed { sock } => {
                let _ = os.close(sock);
                self.drop_conn(sock);
            }
            SockEvent::TcpAborted { sock, .. } => self.drop_conn(sock),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punch_net::testutil::SinkDevice;
    use punch_net::{LinkSpec, NodeId, Packet, Sim};
    use punch_transport::{HostDevice, StackConfig};

    /// A spoofed-source flood against a defended server: `4 ×
    /// max_clients` sources, one every 15 ms over the first second, each
    /// registering once except every eighth, which sends two datagrams
    /// past its bucket. The bucket map stays within twice the client
    /// cap, and sweeping it never changes a verdict.
    #[test]
    fn a_spoofed_source_flood_keeps_the_bucket_map_bounded() {
        const MAX_CLIENTS: usize = 16;
        let mut sim = Sim::new(3);
        let cfg = ServerConfig::default()
            .with_max_clients(MAX_CLIENTS)
            .defended();
        let server_ep = Endpoint::new(Ipv4Addr::new(18, 181, 0, 31), SERVER_PORT);
        let host = HostDevice::new(
            server_ep.ip,
            StackConfig::default(),
            RendezvousServer::new(cfg),
        );
        let server = sim.add_node("server", Box::new(host));
        let sink = sim.add_node("sink", Box::new(SinkDevice::default()));
        sim.connect(server, sink, LinkSpec::new(Duration::from_millis(1)));
        let mut most = 0;
        for k in 0..4 * MAX_CLIENTS as u32 {
            sim.run_until(SimTime::from_millis(u64::from(k) * 15));
            let src = Endpoint::new(Ipv4Addr::from(0x0a00_0000 + k), 4000);
            let msg = Message::Register {
                peer_id: PeerId(u64::from(k) + 1),
                private: src,
            };
            let sends = if k % 8 == 0 { RATE_LIMIT + 2 } else { 1 };
            for _ in 0..sends {
                sim.inject(server, 0, Packet::udp(src, server_ep, msg.encode(true)));
            }
            sim.run_for(Duration::from_micros(1));
            most = most.max(app(&sim, server).buckets.len());
        }
        sim.run_for(Duration::from_secs(1));
        assert!(most <= 2 * MAX_CLIENTS + 1, "{most} buckets");
        // Every verdict as if no bucket were ever forgotten: 8 sources × 2
        // refused, and a reply (an ack, or a refusal once the protected
        // table is full) to each of the other 56 + 8 × 25 datagrams.
        let replies = sim.device::<SinkDevice>(sink).packets.len();
        assert_eq!((app(&sim, server).stats().rate_limited, replies), (16, 256));
    }

    /// A flood of introductions a fleet member must forward, each with a
    /// fresh nonce and none ever answered: the pending-forward table
    /// holds at most `max_clients` entries after every datagram, and
    /// each one past that evicts the oldest.
    #[test]
    fn a_forwarded_introduction_flood_keeps_the_pending_table_capped() {
        const MAX_CLIENTS: usize = 4;
        const REQUESTS: u64 = 12;
        let me = Endpoint::new(Ipv4Addr::new(18, 181, 0, 31), SERVER_PORT);
        let other = Endpoint::new(Ipv4Addr::new(18, 181, 0, 32), SERVER_PORT);
        let cfg = ServerConfig::default()
            .with_max_clients(MAX_CLIENTS)
            .with_fleet(vec![me, other], 0);
        let mut sim = Sim::new(5);
        let host = HostDevice::new(me.ip, StackConfig::default(), RendezvousServer::new(cfg));
        let server = sim.add_node("server", Box::new(host));
        let sink = sim.add_node("sink", Box::new(SinkDevice::default()));
        sim.connect(server, sink, LinkSpec::new(Duration::from_millis(1)));
        sim.run_for(Duration::from_millis(1));
        let client = Endpoint::new(Ipv4Addr::new(99, 1, 1, 1), 4000);
        let register = Message::Register { peer_id: PeerId(1), private: client };
        sim.inject(server, 0, Packet::udp(client, me, register.encode(true)));
        for nonce in 0..REQUESTS {
            // Peer 2 is registered nowhere, so every request is forwarded.
            let ask = Message::ConnectRequest { peer_id: PeerId(1), target: PeerId(2), nonce };
            sim.inject(server, 0, Packet::udp(client, me, ask.encode(true)));
            sim.run_for(Duration::from_micros(1));
            let pending = app(&sim, server).pending.len();
            assert!(pending <= MAX_CLIENTS, "request {nonce}: {pending} pending");
        }
        let s = app(&sim, server).stats();
        assert_eq!((s.forwards, s.forward_errors), (REQUESTS, REQUESTS - MAX_CLIENTS as u64));
    }

    fn app(sim: &Sim, node: NodeId) -> &RendezvousServer {
        sim.device::<HostDevice<RendezvousServer>>(node).app()
    }
}
