//! punch-bench — every experiment behind EXPERIMENTS.md, one binary.
//!
//! ```text
//! cargo run --release -p punch-bench -- <experiment> [--out DIR] [flags]
//! ```
//!
//! One output rule: the narration goes to stdout, and every artifact is
//! written under its fixed name into `--out DIR` (default `results`, the
//! pinned copies — point `--out` elsewhere for capped or exploratory
//! runs). Nothing here reads the host clock, so every artifact is
//! byte-identical on any host and at any `PUNCH_JOBS` worker count; host
//! time is measured in `benchmark/` and nowhere else.
//!
//! Each experiment's acceptance gate always runs and sets the exit
//! status: 0 passed, 1 gate failed (or an artifact could not be
//! written), 2 usage error.

#![deny(clippy::disallowed_types)]

mod ablations;
mod attacks;
mod chaos;
mod chaos_search;
mod flags;
mod fleet;
mod keepalive;
mod latency;
mod million;
mod prediction;
mod scenarios;
mod strategies;
mod table1;

use flags::Flags;
use punch_net::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What one experiment run produced.
pub struct Run {
    /// Printed to stdout when the run ends (the minutes-long `million`
    /// and `fleet` also print a progress line per stage as they go).
    pub narration: String,
    /// `(file name, contents)` pairs written into the `--out` directory.
    pub artifacts: Vec<(String, String)>,
    /// The experiment's acceptance gate over what it just measured.
    pub gate: Result<(), String>,
}

impl Run {
    /// A run whose narration is also its (only) artifact, with no gate
    /// beyond having completed.
    pub fn text(file: &str, narration: String) -> Run {
        Run {
            artifacts: vec![(file.to_string(), narration.clone())],
            narration,
            gate: Ok(()),
        }
    }

    /// A run whose one artifact is a JSON document, printed as its
    /// narration too.
    pub fn json(file: &str, doc: &Json, gate: Result<(), String>) -> Run {
        Run {
            gate,
            ..Run::text(file, doc.render())
        }
    }
}

/// Reads its flags (`Err` = usage error), then runs the experiment.
/// `main` has already rejected every flag the experiment does not declare
/// below, so a module cannot forget to.
type Experiment = fn(&Flags) -> Result<Run, String>;

/// `(name, the flags it takes besides --out, entry point)`.
const EXPERIMENTS: [(&str, &str, Experiment); 12] = [
    ("table1", "", table1::run),
    ("scenarios", "", scenarios::run),
    ("latency", "", latency::run),
    ("prediction", "", prediction::run),
    ("keepalive", "", keepalive::run),
    ("ablations", "", ablations::run),
    ("chaos", "--trials", chaos::run),
    (
        "chaos_search",
        "--schedules --seed --max-faults --profile",
        chaos_search::run,
    ),
    ("strategies", "--trials", strategies::run),
    ("attacks", "--trials", attacks::run),
    (
        "million",
        "--seed --sessions --shards --waves --epoch-ms",
        million::run,
    ),
    (
        "fleet",
        "--seed --sessions --shards --replication --restart-ms --fleets",
        fleet::run,
    ),
];

fn write_artifacts(dir: &Path, artifacts: &[(String, String)]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (file, contents) in artifacts {
        std::fs::write(dir.join(file), contents)?;
        println!("(wrote {})", dir.join(file).display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some((_, takes, experiment)) = EXPERIMENTS.iter().find(|(n, ..)| *n == name) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, ..)| *n).collect();
        eprintln!(
            "usage: punch-bench <{}> [--out DIR] [flags]",
            names.join("|")
        );
        return ExitCode::from(2);
    };
    let known = takes.split_whitespace().chain(["--out"]).collect();
    let parsed = Flags::parse(known, args).and_then(|flags| {
        let out: PathBuf = flags.get("--out", "results".into())?;
        Ok((out, experiment(&flags)?))
    });
    let (out, run) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("punch-bench {name}: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", run.narration);
    if let Err(e) = write_artifacts(&out, &run.artifacts) {
        eprintln!(
            "punch-bench {name}: cannot write into {}: {e}",
            out.display()
        );
        return ExitCode::FAILURE;
    }
    match run.gate {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("punch-bench {name}: GATE FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
