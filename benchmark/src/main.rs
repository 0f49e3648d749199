//! The HypDB-rs benchmark. One command runs one named workload with a
//! seed, checks every output against its pinned fingerprint, and prints
//! every metric by name with its unit; the last stdout line is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! hypdb-benchmark --workload <flight-wide|adult-tall|serve-mixed>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! hypdb-benchmark --write-expected      # re-pin expected.tsv
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! separate traced pass and reports the per-layer metrics (README.md).

mod cold;
mod expected;
mod procstat;
mod report;
mod serve;
mod trace;

use expected::{Endpoint, Entry, Expected};
use report::Metrics;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// What one run reports.
pub struct Outcome {
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Metrics,
    /// Operations (and output checks) attempted.
    pub attempted: u64,
    /// Operations whose output was wrong, missing or an error.
    pub failed: u64,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let expected = Expected::pinned()?;
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    let (seed, secs) = (args.seed, args.seconds);
    match (workload, args.trace) {
        ("flight-wide", false) => cold::run(&cold::FLIGHT, seed, secs, &expected),
        ("flight-wide", true) => cold::run_traced(&cold::FLIGHT, seed, secs, &expected),
        ("adult-tall", false) => cold::run(&cold::ADULT, seed, secs, &expected),
        ("adult-tall", true) => cold::run_traced(&cold::ADULT, seed, secs, &expected),
        ("serve-mixed", false) => serve::run(seed, secs, &expected),
        ("serve-mixed", true) => serve::run_traced(seed, secs, &expected),
        (other, _) => Err(format!(
            "unknown workload {other} (flight-wide, adult-tall, serve-mixed)"
        )),
    }
}

/// Re-pins `expected.tsv`: every cold pool variant and the serve pool,
/// each answered in-process.
fn write_expected() -> Result<(), String> {
    let mut entries = Vec::new();
    for spec in [cold::FLIGHT, cold::ADULT] {
        let table = spec.table();
        for &v in spec.seeds {
            let request = spec.request(v);
            let t = hypdb_obs::Tick::now();
            let report =
                hypdb_core::wire::analyze(&*table, &request, &hypdb_core::HypDbConfig::default())
                    .map_err(|e| format!("{}: {e}", spec.name))?;
            let body = hypdb_core::wire::report_body(&report);
            eprintln!(
                "{} seed {v:?}: {:.3} s, covariates {:?}, mediators {:?}",
                spec.name,
                t.elapsed_secs(),
                report.covariates,
                report.mediators
            );
            entries.push(Entry {
                workload: spec.name.into(),
                class: "cold".into(),
                endpoint: Endpoint::Analyze,
                fnv: hypdb_core::wire::body_fnv_hex(&body),
                request,
            });
        }
    }
    entries.extend(serve::build_pool(serve::SEED_POOL, serve::SELECT_POOL)?);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.tsv");
    let text = Expected { entries }.render();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_expected {
        return match write_expected() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(out) => {
            let workload = args.workload.as_deref().unwrap_or_default();
            let mode = if args.trace {
                "traced pass"
            } else {
                "end to end"
            };
            println!(
                "{workload} (seed {}, {} s, {mode})",
                args.seed, args.seconds
            );
            for n in &out.notes {
                println!("  {n}");
            }
            print!("{}", out.metrics.human());
            println!(
                "{}",
                out.metrics
                    .result_line(out.attempted, out.failed, out.failed == 0)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
