//! # punch-bench — experiment harnesses behind the evaluation
//!
//! Library functions that run each experiment from DESIGN.md's index and
//! return structured results; the `punch-bench` binary narrates them,
//! gates them and writes the `results/` artifacts, and EXPERIMENTS.md
//! records them against the paper. Everything here is measured in
//! simulated time; the implementation's host-time performance is
//! `benchmark/`'s business.

pub mod experiments;

pub use experiments::*;
