//! Property tests on the engine: determinism, FIFO links, and loss
//! accounting.

use proptest::prelude::*;
use punch_net::testutil::SinkDevice;
use punch_net::{Duration, Endpoint, LinkSpec, Packet, Sim, SimStats};

fn ep(ip: [u8; 4], port: u16) -> Endpoint {
    Endpoint::new(ip.into(), port)
}

/// Builds a star topology and pushes a deterministic traffic pattern.
fn run_star(
    seed: u64,
    n_leaves: u8,
    sends: &[(u8, u16)],
    spec: LinkSpec,
) -> (SimStats, Vec<usize>) {
    let mut sim = Sim::new(seed);
    let hub = sim.add_node("hub", Box::new(SinkDevice::default()));
    let leaves: Vec<_> = (0..n_leaves)
        .map(|i| {
            let leaf = sim.add_node(format!("l{i}"), Box::new(SinkDevice::default()));
            sim.connect(hub, leaf, spec);
            leaf
        })
        .collect();
    for &(leaf, port) in sends {
        let iface = (leaf % n_leaves) as usize;
        sim.with_node(hub, |_, ctx| {
            ctx.send(
                iface,
                Packet::udp(ep([1, 1, 1, 1], 1), ep([2, 2, 2, 2], port), b"x".as_ref()),
            );
        });
        sim.run_for(Duration::from_micros(50));
    }
    sim.run_until_idle();
    let counts = leaves
        .iter()
        .map(|&l| sim.device::<SinkDevice>(l).packets.len())
        .collect();
    (sim.stats(), counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical seeds and inputs give identical statistics and
    /// deliveries, even with loss and jitter in play.
    #[test]
    fn same_seed_same_world(
        seed in any::<u64>(),
        n_leaves in 1u8..5,
        sends in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..40),
        loss in 0.0f64..0.5,
    ) {
        let spec = LinkSpec::access().with_loss(loss);
        let a = run_star(seed, n_leaves, &sends, spec);
        let b = run_star(seed, n_leaves, &sends, spec);
        prop_assert_eq!(a, b);
    }

    /// Loss accounting: sent = delivered + lost (no packet limbo).
    #[test]
    fn loss_accounting_balances(
        seed in any::<u64>(),
        sends in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..60),
        loss in 0.0f64..1.0,
    ) {
        let (stats, _) = run_star(seed, 3, &sends, LinkSpec::access().with_loss(loss));
        prop_assert_eq!(stats.packets_sent, stats.packets_delivered + stats.packets_lost);
    }

    /// FIFO links: per link direction, packets arrive in the order sent,
    /// regardless of jitter.
    #[test]
    fn links_never_reorder(
        seed in any::<u64>(),
        n in 2usize..30,
        jitter_ms in 0u64..20,
    ) {
        let mut sim = Sim::new(seed);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        let spec = LinkSpec {
            jitter: Duration::from_millis(jitter_ms),
            ..LinkSpec::new(Duration::from_millis(5))
        };
        sim.connect(a, b, spec);
        for i in 0..n {
            sim.with_node(a, |_, ctx| {
                ctx.send(0, Packet::udp(ep([1, 1, 1, 1], i as u16), ep([2, 2, 2, 2], 9), b"x".as_ref()));
            });
        }
        sim.run_until_idle();
        let got: Vec<u16> = sim
            .device::<SinkDevice>(b)
            .packets
            .iter()
            .map(|(_, p)| p.src.port)
            .collect();
        let expected: Vec<u16> = (0..n as u16).collect();
        prop_assert_eq!(got, expected);
        // And the engine counted each packet sent and delivered once.
        let stats = sim.stats();
        prop_assert_eq!(stats.packets_sent, n as u64);
        prop_assert_eq!(stats.packets_delivered, n as u64);
    }

    /// The clock never goes backwards across arbitrary stepping patterns.
    #[test]
    fn time_is_monotonic(seed in any::<u64>(), steps in proptest::collection::vec(1u64..200, 1..20)) {
        let mut sim = Sim::new(seed);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::access());
        let mut last = sim.now();
        for (i, ms) in steps.iter().enumerate() {
            if i % 3 == 0 {
                sim.with_node(a, |_, ctx| {
                    ctx.send(0, Packet::udp(ep([1, 1, 1, 1], 1), ep([2, 2, 2, 2], 2), b"x".as_ref()));
                });
            }
            sim.run_for(Duration::from_millis(*ms));
            prop_assert!(sim.now() >= last);
            last = sim.now();
        }
    }
}
