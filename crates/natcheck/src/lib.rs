//! # punch-natcheck — the NAT Check tool, reproduced
//!
//! A faithful reimplementation of the paper's §6.1 measurement tool:
//!
//! - [`CheckServer`] ×3 — two reflectors plus the unsolicited-traffic
//!   originator, with server 2's deferred reply and server 3's
//!   listener-less TCP probe port (Figure 8).
//! - [`NatCheckClient`] — the phased client: UDP consistency, per-session
//!   filtering, UDP hairpin; TCP consistency, unsolicited-SYN handling
//!   via deliberate simultaneous open with server 3, TCP hairpin.
//! - [`survey`] — runs NAT Check over the Table 1 vendor populations of
//!   `punch-nat` and regenerates the table **by measurement**, not by
//!   reading configurations back.
//!
//! Deliberately reproduced limitation (§6.3): payload endpoints are not
//! obfuscated, so payload-mangling NATs corrupt NAT Check's view.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

pub mod client;
pub mod pair;
pub mod servers;
pub mod survey;
pub mod wire;

pub use client::{NatCheckClient, NatCheckReport};
pub use pair::{check_nat_pair, PairReport};
pub use servers::{CheckServer, ServerRole, CHECK_PORT, S3_PROBE_PORT};
pub use survey::{
    check_nat, run_survey, run_survey_mutated, run_survey_mutated_with_workers, SurveyResult,
    SurveyRow,
};
pub use wire::{CheckFrames, CheckMsg, InboundStatus, MAX_CHECK_BUFFER};
