//! Host stack configuration: the tunables a run may change, and the
//! constants (MSS, SYN retries, RTO cap, ephemeral port range) none does.

use std::time::Duration;

/// Which operating-system behaviour the TCP stack exhibits when a SYN
/// arrives matching both an in-progress outbound `connect()` and a
/// listening socket on the same port (paper §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TcpFlavor {
    /// BSD-style: the SYN is matched to the connecting socket, whose
    /// asynchronous `connect()` then succeeds; the listener is untouched.
    Bsd,
    /// Linux/Windows-style: the listener wins; a fresh socket is delivered
    /// via `accept()` and the outstanding `connect()` on the same 4-tuple
    /// fails with "address in use".
    #[default]
    LinuxWindows,
}

/// Maximum segment size for stream data.
pub(crate) const MSS: usize = 1400;
/// SYN retransmissions before a connect fails with `TimedOut`.
pub(crate) const SYN_RETRIES: u32 = 5;
/// Upper bound on the backed-off retransmission timeout.
pub(crate) const RTO_MAX: Duration = Duration::from_secs(60);
/// Inclusive range from which ephemeral ports are drawn (IANA's dynamic
/// range).
pub(crate) const EPHEMERAL_PORTS: (u16, u16) = (49152, 65535);

/// Tunables for a host protocol stack.
///
/// Defaults model a contemporary general-purpose OS
/// ([`StackConfig::fast`] shrinks the initial RTO and TIME-WAIT for
/// short simulations, and [`StackConfig::defended`] validates RSTs:
/// each profile is the knob for its values); tests
/// assign the public fields to force specific orderings. The MSS (1400
/// bytes), SYN retries (5), RTO cap (60 s) and ephemeral port range
/// (49152–65535) are fixed. Hosts that run alike share one
/// configuration behind an `Arc` ([`crate::HostDevice::new`] takes a
/// value or the `Arc`).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct StackConfig {
    /// OS flavour for the §4.3 SYN-demux ambiguity.
    pub tcp_flavor: TcpFlavor,
    /// Initial retransmission timeout for both SYNs and data.
    pub(crate) rto_initial: Duration,
    /// Data/FIN retransmissions before the connection aborts.
    pub data_retries: u32,
    /// Cap on unacknowledged in-flight bytes (simple fixed window).
    pub send_window: usize,
    /// How long a closed connection lingers in TIME-WAIT (2×MSL).
    pub(crate) time_wait: Duration,
    /// RFC 5961-style RST validation ([`StackConfig::defended`]).
    pub(crate) rst_validation: bool,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            tcp_flavor: TcpFlavor::default(),
            rto_initial: Duration::from_secs(1),
            data_retries: 8,
            send_window: 64 * 1024,
            time_wait: Duration::from_secs(30),
            rst_validation: false,
        }
    }
}

impl StackConfig {
    /// A configuration with fast timeouts, convenient for short
    /// simulations (SYN RTO 500 ms, TIME-WAIT 2 s).
    pub fn fast() -> Self {
        StackConfig {
            rto_initial: Duration::from_millis(500),
            time_wait: Duration::from_secs(2),
            ..StackConfig::default()
        }
    }

    /// Same configuration with a different TCP flavour.
    pub fn with_flavor(mut self, flavor: TcpFlavor) -> Self {
        self.tcp_flavor = flavor;
        self
    }

    /// Same configuration with the off-path RST defense on (EC3):
    /// RFC 5961-style validation, under which only a RST whose sequence
    /// number exactly matches `rcv_nxt` tears a connection down and an
    /// in-window one elicits a challenge ACK and is otherwise ignored.
    /// Off, the stack accepts any RST (classic RFC 793), which
    /// is what an off-path injector exploits.
    pub fn defended(mut self) -> Self {
        self.rst_validation = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_flavor_is_linux_windows() {
        // The paper observes this is the more common behaviour.
        assert_eq!(TcpFlavor::default(), TcpFlavor::LinuxWindows);
    }

    #[test]
    fn fast_config_shrinks_timers() {
        let c = StackConfig::fast();
        assert!(c.rto_initial < StackConfig::default().rto_initial);
        assert!(c.time_wait < StackConfig::default().time_wait);
    }

    #[test]
    fn with_flavor_overrides() {
        let c = StackConfig::fast().with_flavor(TcpFlavor::Bsd);
        assert_eq!(c.tcp_flavor, TcpFlavor::Bsd);
    }
}
