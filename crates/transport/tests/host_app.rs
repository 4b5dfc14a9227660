//! Typed access to a host's application: `HostDevice::app` and
//! `HostDevice::with_app` hand back the app a caller installed, whether
//! the host boxes it (`HostDevice`) or holds it inline
//! (`HostDevice<Pinger>`), and a wrong type panics with one fixed text.

use punch_net::{Endpoint, LinkSpec, NodeId, Sim};
use punch_transport::{App, HostDevice, Os, SockEvent, StackConfig};
use std::convert::identity as inline;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SERVER: Endpoint = Endpoint::new(std::net::Ipv4Addr::new(18, 181, 0, 31), 1234);

/// Echoes every datagram back to its sender.
struct Echo;

impl App for Echo {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        os.udp_bind(SERVER.port).expect("bind");
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        if let SockEvent::UdpReceived { sock, from, data } = ev {
            os.udp_send(sock, from, data).expect("echo");
        }
    }
}

/// Counts the echoes it gets back.
#[derive(Default)]
struct Pinger {
    echoes: usize,
}

impl App for Pinger {
    fn on_event(&mut self, _os: &mut Os<'_, '_>, ev: SockEvent) {
        if matches!(ev, SockEvent::UdpReceived { .. }) {
            self.echoes += 1;
        }
    }
}

/// The app type no host here runs.
struct Other;

impl App for Other {
    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}
}

/// How a test installs its pinger: boxed, or inline.
type Install<A> = fn(Pinger) -> A;

fn boxed(p: Pinger) -> Box<dyn App> {
    Box::new(p)
}

/// An echo server on a boxed host and a pinger on a `HostDevice<A>`,
/// on one link.
fn pair<A: App>(install: Install<A>) -> (Sim, NodeId) {
    let mut sim = Sim::new(3);
    let server = HostDevice::new(
        SERVER.ip,
        StackConfig::default(),
        Box::new(Echo) as Box<dyn App>,
    );
    let server = sim.add_node("s", Box::new(server));
    let pinger = HostDevice::new(
        [10, 0, 0, 1].into(),
        StackConfig::default(),
        install(Pinger::default()),
    );
    let pinger = sim.add_node("c", Box::new(pinger));
    sim.connect(pinger, server, LinkSpec::wan());
    sim.run_until_idle();
    (sim, pinger)
}

/// Runs `f` through the pinger host's `with_app`.
fn with_app<A: App, T: App, R>(
    sim: &mut Sim,
    node: NodeId,
    f: impl FnOnce(&mut T, &mut Os<'_, '_>) -> R,
) -> R {
    sim.with_node(node, |dev, ctx| {
        let host = dev.downcast_mut::<HostDevice<A>>().expect("pinger host");
        host.with_app::<T, R>(ctx, f)
    })
}

/// Sends one datagram from the pinger through `with_app` and runs the
/// echo home.
fn ping<A: App>(sim: &mut Sim, node: NodeId) {
    with_app::<A, Pinger, _>(sim, node, |_, os| {
        let sock = os.udp_bind(0).expect("bind");
        os.udp_send(sock, SERVER, b"ping".as_ref()).expect("send");
    });
    sim.run_until_idle();
}

/// The panic text of `f`.
fn panic_text(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    }
}

fn wrong_type_text() -> String {
    format!("app is not a {}", std::any::type_name::<Other>())
}

fn hands_back_its_app<A: App>(install: Install<A>) {
    let (mut sim, pinger) = pair(install);
    assert_eq!(
        sim.device::<HostDevice<A>>(pinger).app::<Pinger>().echoes,
        0
    );
    ping::<A>(&mut sim, pinger);
    ping::<A>(&mut sim, pinger);
    assert_eq!(
        sim.device::<HostDevice<A>>(pinger).app::<Pinger>().echoes,
        2
    );
}

fn with_app_returns_the_closure_result<A: App>(install: Install<A>) {
    let (mut sim, pinger) = pair(install);
    ping::<A>(&mut sim, pinger);
    assert_eq!(
        with_app::<A, Pinger, _>(&mut sim, pinger, |p, _| p.echoes),
        1
    );
}

fn names_the_wrong_type_in_app<A: App>(install: Install<A>) {
    let (sim, pinger) = pair(install);
    let text = panic_text(|| {
        sim.device::<HostDevice<A>>(pinger).app::<Other>();
    });
    assert_eq!(text, wrong_type_text());
}

fn names_the_wrong_type_in_with_app<A: App>(install: Install<A>) {
    let (mut sim, pinger) = pair(install);
    let text = panic_text(|| with_app::<A, Other, _>(&mut sim, pinger, |_, _| ()));
    assert_eq!(text, wrong_type_text());
}

#[test]
fn boxed_host_hands_back_its_app() {
    hands_back_its_app(boxed);
}

#[test]
fn boxed_host_with_app_returns_the_closure_result() {
    with_app_returns_the_closure_result(boxed);
}

#[test]
fn boxed_host_names_the_wrong_type_in_app() {
    names_the_wrong_type_in_app(boxed);
}

#[test]
fn boxed_host_names_the_wrong_type_in_with_app() {
    names_the_wrong_type_in_with_app(boxed);
}

#[test]
fn typed_host_hands_back_its_app() {
    hands_back_its_app(inline);
}

#[test]
fn typed_host_with_app_returns_the_closure_result() {
    with_app_returns_the_closure_result(inline);
}

#[test]
fn typed_host_names_the_wrong_type_in_app() {
    names_the_wrong_type_in_app(inline);
}

#[test]
fn typed_host_names_the_wrong_type_in_with_app() {
    names_the_wrong_type_in_with_app(inline);
}
