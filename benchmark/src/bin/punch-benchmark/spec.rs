//! What the benchmark measures: the workloads and every metric's name,
//! unit, direction and bound. `BENCHMARK.json` is this file rendered
//! (`punch-benchmark manifest`); `smoke.sh` fails if the two differ.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    CrowdUdp,
    FleetChurn,
    SurveyTcp,
    StreamTcp,
    ServerStorm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CrowdUdp,
        Workload::FleetChurn,
        Workload::SurveyTcp,
        Workload::StreamTcp,
        Workload::ServerStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CrowdUdp => "crowd_udp",
            Workload::FleetChurn => "fleet_churn",
            Workload::SurveyTcp => "survey_tcp",
            Workload::StreamTcp => "stream_tcp",
            Workload::ServerStorm => "server_storm",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::CrowdUdp | Workload::FleetChurn => "punch session",
            Workload::SurveyTcp => "NAT Check device run",
            Workload::StreamTcp => "8 KiB chunk delivered",
            Workload::ServerStorm => "request served",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::CrowdUdp => "20k UDP punch sessions as one burst (BENCH_million at 1/5): every layer carries 5-30%, working set far beyond cache",
            Workload::FleetChurn => "2k sessions on a 4-server fleet for 70 sim-s with a member restart: steady keepalives and table hits, not a burst of inserts",
            Workload::SurveyTcp => "64 Table-1 surveys, 24k tiny cache-resident worlds built inside the op, TCP handshakes and every NAT axis; the only natcheck user",
            Workload::StreamTcp => "64 MiB over one punched TCP stream: transport-dominated (TCB + checksum on 1400 B segments), largest packets, bypasses punch and server",
            Workload::ServerStorm => "1.2M Register/ConnectRequest datagrams into one rendezvous server: rendezvous-dominated, smallest packets, no NAT and no peer",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// How a run reduces its reps to the one value it reports.
    pub stat: Stat,
}

/// A run's reps all do the same deterministic work, so what differs
/// between them is the host. Its interference only ever adds time, in
/// bursts that can cover most of a run; the fastest rep is then the one
/// estimate a burst does not move (README, "Why the fastest rep").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stat {
    Median,
    /// The smallest value: host times only.
    Fastest,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    stat: Stat,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        stat,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        stat: Stat::Median,
    }
}

use Better::{Higher, Lower};

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, Stat::Fastest),
    e2e("host_us_per_op", "us", Lower, 0.25, Stat::Fastest),
    e2e("peak_rss_mib", "MiB", Lower, 0.05, Stat::Median),
    e2e("resolved_share", "ratio", Higher, 0.01, Stat::Median),
    e2e("sim_success_share", "ratio", Higher, 0.01, Stat::Median),
];

pub const PER_LAYER: &[MetricDef] = &[
    // net: the sim engine and the router.
    layer("net.engine_self_share", "ratio", Lower),
    layer("net.engine_self_ns_per_event", "ns", Lower),
    layer("net.router_share", "ratio", Lower),
    layer("net.router_ns_per_call", "ns", Lower),
    layer("net.ns_per_event", "ns", Lower),
    layer("net.events_per_op", "count", Lower),
    layer("net.packets_per_op", "count", Lower),
    layer("net.device_drops_per_op", "count", Lower),
    layer("net.queue_depth_hi", "count", Lower),
    layer("net.pool_recycle_share", "ratio", Higher),
    layer("net.batch_coalesce_share", "ratio", Higher),
    layer("net.calendar_ns_per_op", "ns", Lower),
    layer("net.checksum_ns_per_kib", "ns", Lower),
    // nat
    layer("nat.share", "ratio", Lower),
    layer("nat.ns_per_call", "ns", Lower),
    layer("nat.calls_per_op", "count", Lower),
    layer("nat.mappings_per_op", "count", Lower),
    layer("nat.inbound_blocked_share", "ratio", Lower),
    // transport: HostDevice span minus the App span inside it.
    layer("transport.client_self_share", "ratio", Lower),
    layer("transport.client_self_ns_per_call", "ns", Lower),
    layer("transport.server_self_share", "ratio", Lower),
    layer("transport.server_self_ns_per_call", "ns", Lower),
    layer("transport.retransmits_per_op", "count", Lower),
    layer("transport.checksum_drops", "count", Lower),
    // rendezvous
    layer("rendezvous.server_share", "ratio", Lower),
    layer("rendezvous.server_ns_per_call", "ns", Lower),
    layer("rendezvous.registrations_per_op", "count", Lower),
    layer("rendezvous.introductions_per_op", "count", Lower),
    layer("rendezvous.forwards_per_op", "count", Lower),
    layer("rendezvous.errors", "count", Lower),
    layer("rendezvous.codec_ns_per_msg", "ns", Lower),
    // core: UdpPeer / TcpPeer.
    layer("core.peer_share", "ratio", Lower),
    layer("core.peer_ns_per_call", "ns", Lower),
    layer("core.probes_per_op", "count", Lower),
    layer("core.keepalives_per_op", "count", Lower),
    layer("core.repunches_per_op", "count", Lower),
    layer("core.direct_per_probe", "ratio", Higher),
    layer("core.tcp_retries_per_op", "count", Lower),
    // natcheck
    layer("natcheck.app_share", "ratio", Lower),
    layer("natcheck.app_ns_per_call", "ns", Lower),
    // lab: world build, epoch loop, worker pool.
    layer("lab.driver_share", "ratio", Lower),
    layer("lab.world_build_share", "ratio", Lower),
    layer("lab.poll_release_share", "ratio", Lower),
    layer("lab.build_us_per_node", "us", Lower),
    layer("lab.par_speedup", "x", Higher),
    // The harness watching itself.
    layer("host.steal_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.replica_matches", "count", Higher),
];

/// `BENCHMARK.json`.
pub fn manifest() -> Json {
    let better = |b: Better| Json::str(if b == Lower { "lower" } else { "higher" });
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
