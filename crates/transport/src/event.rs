//! Asynchronous socket events delivered to applications.

use crate::error::SocketError;
use crate::socket::SocketId;
use bytes::Bytes;
use punch_net::Endpoint;

/// An asynchronous notification from the host stack to the application.
///
/// Events are the completion half of the non-blocking socket API: a
/// `tcp_connect` returns a [`SocketId`] immediately and later produces
/// either [`SockEvent::TcpConnected`] or [`SockEvent::TcpConnectFailed`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SockEvent {
    /// A UDP datagram arrived on `sock`.
    UdpReceived {
        /// Receiving socket.
        sock: SocketId,
        /// Sender's endpoint as seen on the wire (post-NAT).
        from: Endpoint,
        /// Datagram payload.
        data: Bytes,
    },
    /// An asynchronous `tcp_connect` completed successfully.
    TcpConnected {
        /// The connecting socket, now established.
        sock: SocketId,
    },
    /// An asynchronous `tcp_connect` failed.
    ///
    /// `err` distinguishes RSTs ([`SocketError::ConnectionRefused`] /
    /// [`SocketError::ConnectionReset`]), ICMP errors
    /// ([`SocketError::HostUnreachable`]), retransmission exhaustion
    /// ([`SocketError::TimedOut`]), and the §4.3 4-tuple collision
    /// ([`SocketError::AddrInUse`]).
    TcpConnectFailed {
        /// The socket whose connect failed; it is already closed.
        sock: SocketId,
        /// Failure reason.
        err: SocketError,
    },
    /// A new connection is ready to be `tcp_accept`ed from a listener.
    TcpIncoming {
        /// The listening socket.
        listener: SocketId,
    },
    /// Stream data arrived on an established connection.
    TcpReceived {
        /// Receiving socket.
        sock: SocketId,
        /// In-order stream bytes.
        data: Bytes,
    },
    /// The peer closed its sending direction (FIN received).
    TcpPeerClosed {
        /// The socket whose peer closed.
        sock: SocketId,
    },
    /// An established connection died (RST, timeout).
    TcpAborted {
        /// The socket, already closed.
        sock: SocketId,
        /// Failure reason.
        err: SocketError,
    },
    /// All data previously passed to `tcp_send` has been acknowledged.
    TcpSendDrained {
        /// The socket whose send queue drained.
        sock: SocketId,
    },
}

// A host's event outbox holds these four at a time (`Vec`'s first
// growth), one outbox per host.
const _: () = assert!(std::mem::size_of::<SockEvent>() <= 64);

impl SockEvent {
    /// Returns the socket the event concerns.
    pub fn socket(&self) -> SocketId {
        match *self {
            SockEvent::UdpReceived { sock, .. }
            | SockEvent::TcpConnected { sock }
            | SockEvent::TcpConnectFailed { sock, .. }
            | SockEvent::TcpReceived { sock, .. }
            | SockEvent::TcpPeerClosed { sock }
            | SockEvent::TcpAborted { sock, .. }
            | SockEvent::TcpSendDrained { sock } => sock,
            SockEvent::TcpIncoming { listener } => listener,
        }
    }
}
