//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! punch-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! punch-benchmark all [--seed N] [--seconds S] [--div D]          every workload, both modes
//! punch-benchmark aa  [--seed N] [--seconds S] [--div D]          the end-to-end set twice, compared
//! punch-benchmark manifest                                        BENCHMARK.json
//! punch-benchmark rep --workload W --seed N --mode M --div D      one rep (what the others spawn)
//! ```
//!
//! Run it from the repository root: it reads `results/table1.txt` and
//! writes under `benchmark/out/`.

mod bench;
mod clock;
mod digest;
mod host;
mod json;
mod probes;
mod rep;
mod shard;
mod spec;
mod spy;
mod storm;
mod stream;
mod survey;
mod trace;

use bench::RunResult;
use host::Fingerprint;
use json::Json;
use rep::{Mode, Size};
use spec::{Workload, END_TO_END, RUN_SECONDS};
use std::process::ExitCode;

struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 2005,
        seconds: RUN_SECONDS as f64,
        trace: false,
        mode: Mode::Untraced,
        size: Size { div: 1 },
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--mode" => {
                let name = value()?;
                args.mode = Mode::from_name(&name).ok_or(format!("unknown mode {name}"))?;
            }
            "--div" => {
                args.size.div = value()?.parse().map_err(|e| format!("--div: {e}"))?;
                if args.size.div == 0 {
                    return Err("--div must be positive".to_string());
                }
            }
            cmd if !cmd.starts_with('-') && args.command.is_none() => {
                args.command = Some(cmd.to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn print_host(host: &Fingerprint, when: &str) {
    println!(
        "host ({when}): nproc {}, kernel {}, {}, loadavg {:.2}",
        host.nproc,
        host.kernel,
        host.rustc,
        host::loadavg()
    );
}

/// `all`: every workload end to end, then every workload per layer.
fn all(args: &Args, host: &Fingerprint) -> bool {
    let load_before = host::loadavg();
    print_host(host, "before");
    let mut results = bench::run(&Workload::ALL, args.seed, args.size, args.seconds, false);
    results.extend(bench::run(
        &Workload::ALL,
        args.seed,
        args.size,
        args.seconds,
        true,
    ));
    for r in &results {
        r.print_table();
    }
    print_host(host, "after");
    Json::obj([
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("div", Json::Int(u64::from(args.size.div))),
        (
            "host",
            Json::obj([
                ("nproc", Json::Int(host.nproc as u64)),
                ("kernel", Json::str(&host.kernel)),
                ("rustc", Json::str(&host.rustc)),
                ("loadavg_before", Json::Num(load_before)),
                ("loadavg_after", Json::Num(host::loadavg())),
            ]),
        ),
        (
            "runs",
            Json::Arr(results.iter().map(RunResult::to_json).collect()),
        ),
    ])
    .write_out("results.json");
    let bad: Vec<&str> = results
        .iter()
        .filter(|r| !r.correct)
        .map(|r| r.workload.name())
        .collect();
    if !bad.is_empty() {
        println!("correctness gate FAILED on: {}", bad.join(", "));
    }
    bad.is_empty()
}

/// `aa`: the end-to-end set twice on the same commit. Fails if any
/// metric's two values differ by more than its bound, or the simulated
/// results differ at all.
fn aa(args: &Args, host: &Fingerprint) -> bool {
    print_host(host, "before");
    let first = bench::run(&Workload::ALL, args.seed, args.size, args.seconds, false);
    let second = bench::run(&Workload::ALL, args.seed, args.size, args.seconds, false);
    let mut ok = true;
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        if !(a.correct && b.correct) {
            println!("{}: correctness gate failed", a.workload.name());
            ok = false;
        }
        if a.sim_identity != b.sim_identity {
            println!(
                "{}: simulated results differ: `{}` vs `{}`",
                a.workload.name(),
                a.sim_identity,
                b.sim_identity
            );
            ok = false;
        }
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            let def = ma.def;
            let diff = (mb.value - ma.value) / ma.value;
            let within = diff.abs() <= def.bound;
            ok &= within;
            println!(
                "{:<13} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%{}",
                a.workload.name(),
                def.name,
                ma.value,
                mb.value,
                diff * 100.0,
                def.bound * 100.0,
                if within { "" } else { "  ** OUT OF BOUND **" }
            );
        }
    }
    print_host(host, "after");
    println!("A/A {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// The driver's contract: one workload, one mode, one result line.
fn driver_run(args: &Args, workload: Workload, host: &Fingerprint) -> bool {
    print_host(host, "before");
    let r = bench::run(&[workload], args.seed, args.size, args.seconds, args.trace).remove(0);
    r.print_table();
    if !args.trace {
        for m in &r.metrics {
            let samples: Vec<String> = m.samples.iter().map(|x| format!("{x:.6}")).collect();
            println!("  {} by rep: {}", m.def.name, samples.join(" "));
        }
    }
    print_host(host, "after");
    // A run that finished reports its verdict in `correct`; a run that
    // could not measure anything prints no result and exits non-zero.
    if r.reps > 0 {
        println!("{}", r.result_line());
    }
    r.reps > 0
}

fn main() -> ExitCode {
    let t0 = clock::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("punch-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_deref(), args.workload) {
        (Some("rep"), Some(w)) => {
            rep::child(w, args.seed, args.mode, args.size, t0);
            true
        }
        (Some("manifest"), _) => {
            print!("{}", spec::manifest().pretty());
            true
        }
        (Some("all"), _) => all(&args, &host::fingerprint()),
        (Some("aa"), _) => aa(&args, &host::fingerprint()),
        (None, Some(w)) => driver_run(&args, w, &host::fingerprint()),
        _ => {
            eprintln!("punch-benchmark: expected --workload W, or one of: all, aa, manifest");
            eprintln!(
                "workloads: {}",
                Workload::ALL.map(Workload::name).join(", ")
            );
            eprintln!(
                "end-to-end metrics: {}",
                END_TO_END
                    .iter()
                    .map(|m| m.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
