//! # punch-lab — experiment topologies and harness helpers
//!
//! Reusable builders for the network scenarios the paper analyzes:
//!
//! - [`WorldBuilder`] — arbitrary topologies: one backbone router, public
//!   servers, (optionally nested) NATs, and clients.
//! - [`fig4`] — two clients behind a **common NAT** (§3.3, Figure 4).
//! - [`fig5`] — two clients behind **different NATs** (§3.4, Figure 5),
//!   using the paper's exact example addresses.
//! - [`fig6`] — **multi-level NAT**: consumer NATs behind an ISP NAT
//!   (§3.5, Figure 6), where hairpin support on the top NAT decides the
//!   outcome.
//!
//! All builders return a [`World`] wrapping the [`punch_net::Sim`], with helpers to
//! reach into host applications. One private helper in [`world`] wires
//! every host and NAT — for [`WorldBuilder`] and for [`shard`] alike — so
//! a session in a 10^5-session population is the same wiring the
//! small Figure-5 experiments validate.
//!
//! The [`par`] module runs fan-outs of independent simulations on a
//! worker pool while keeping results in task order, so experiment
//! output stays byte-identical to a sequential run.
//!
//! The [`chaos`] module is the one fault harness: it runs EC's four
//! scripted fault schedules against a settled Figure-5 pair and times
//! the recovery, and it samples random fault schedules against the
//! same topology, checks liveness and replay-determinism invariants,
//! and shrinks failing schedules to minimal replayable fault plans.
//!
//! The [`adversary`] module puts seeded attacker nodes *inside* the
//! simulation — mapping-exhaustion floods, off-path RST/forgery
//! injection, rendezvous-abuse storms — and measures the victim's
//! punch success and recovery latency with each paired defense off
//! and on.
//!
//! The [`shard`] module scales the Figure-5 scenario to populations of
//! 10^5–10^6 endpoints by partitioning sessions across per-shard sims
//! advanced in parallel, with deterministic epoch-boundary handoff.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

pub mod adversary;
pub mod chaos;
pub mod par;
pub mod shard;
pub mod world;

#[cfg(test)]
mod tests;

pub use adversary::{
    run_intro_forgery, run_mapping_flood, run_reg_squat, run_rst_inject, AbuseAction, AbuseBot,
    AttackReport, FloodBot, SpoofBot,
};
pub use shard::{OutcomeCounts, SessionOutcome, ShardConfig, ShardedWorld};
pub use world::{addrs, fig4, fig5, fig5_builder, fig6, PeerSetup, Scenario, World, WorldBuilder};
