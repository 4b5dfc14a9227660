//! CLI for `punch-lint`. See `LINTS.md` for the rule catalog.
//!
//! ```text
//! punch-lint [--root DIR] [--emit-registries DIR]
//! ```
//!
//! `--emit-registries DIR` writes the three registries
//! (`LINT_wire_registry.json`, `LINT_rng_inventory.json`,
//! `LINT_metric_registry.json`) into DIR after the scan, preserving
//! hand-written review reasons from the pinned RNG inventory. Point it
//! at `results/` to refresh the pinned copies, then review the diff.
//!
//! Exit status: 0 clean, 1 unsuppressed violations, 2 usage/IO error.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut emit: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("punch-lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--emit-registries" => match args.next() {
                Some(dir) => emit = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("punch-lint: --emit-registries requires a directory");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!(
                    "punch-lint [--root DIR] [--emit-registries DIR]\n\n\
                     Determinism, wire-safety and dead-surface static analysis for\n\
                     the p2p-punch workspace. Rules: {} (catalog in LINTS.md).\n\
                     --emit-registries DIR regenerates the pinned registries\n\
                     (usually DIR = results).\n\
                     Exit: 0 clean, 1 violations, 2 usage/IO error.",
                    punch_lint::RULES.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("punch-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let report = match punch_lint::lint_tree(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("punch-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = emit {
        if let Err(e) = report.registries.write_to(&dir) {
            eprintln!("punch-lint: failed to emit registries to {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render_text());
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
