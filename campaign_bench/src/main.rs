//! The druzhba campaign benchmark.
//!
//! ```text
//! campaign-bench --workload <fuzz_corpus|verify_sweep|p4_fuzz|mutant_hunt>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so set-up time and peak memory belong to
//! that workload. Each run times repeated set-ups, then drives the
//! workload's real campaign entry point in cycles for `--seconds`,
//! checking every verdict against its known answer. With
//! `--trace 1` it then re-drives the same cycles through the layers'
//! public functions with a span around each call (see [`trace`]),
//! checks that every traced verdict equals the untraced one, and reports
//! each layer's self time. README.md beside this package lists why each
//! workload exists and which layer metric should move which end-to-end
//! metric.
//!
//! Human-readable metric lines go to standard output first; the last
//! line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced).

mod common;
mod fuzz_corpus;
mod layers;
mod mutant_hunt;
mod p4_fuzz;
mod report;
mod trace;
mod verify_sweep;

use std::process::ExitCode;

use common::{Opts, Outcome};

/// The workloads, with the name of the work unit their throughput counts.
const WORKLOADS: [(&str, &str); 4] = [
    ("fuzz_corpus", "phvs_per_s"),
    ("verify_sweep", "traces_per_s"),
    ("p4_fuzz", "packets_per_s"),
    ("mutant_hunt", "mutants_per_s"),
];

const USAGE: &str =
    "usage: campaign-bench --workload <fuzz_corpus|verify_sweep|p4_fuzz|mutant_hunt> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static str,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS
                    .iter()
                    .map(|(w, _)| *w)
                    .find(|w| w == value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                workload = Some(name);
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|_| format!("bad --seed `{value}`"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive (got {value})"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1 (got `{value}`)")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2);
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            workers,
        },
    })
}

fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    match workload {
        "fuzz_corpus" => fuzz_corpus::run(opts),
        "verify_sweep" => verify_sweep::run(opts),
        "p4_fuzz" => p4_fuzz::run(opts),
        "mutant_hunt" => mutant_hunt::run(opts),
        _ => unreachable!("workload names are validated when parsed"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(args.workload, &args.opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let unit = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map(|(_, u)| *u)
        .expect("validated workload");
    report::print(args.workload, unit, &args.opts, &outcome);
    ExitCode::SUCCESS
}
