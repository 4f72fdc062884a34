//! End-to-end benchmark of RodentStore on file-backed databases.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <geo_window|telemetry_ingest|column_scan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, builds a database under
//! `.bench_work/` in the current directory, measures a closed loop with one
//! client thread for `--seconds` (whole rounds of the same operations), checks
//! every answer against results computed apart from the engine, and prints one
//! JSON object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics and writes the
//! recorded spans to `perfbench/traces/`. The process exits non-zero when any
//! check fails. See README.md for the metric definitions.

mod columns;
mod common;
mod geo;
mod layers;
mod telemetry;
mod trace;

use common::{Args, Report};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["geo_window", "telemetry_ingest", "column_scan"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("{e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(args.trace);
    let work = common::WorkDir::new(&args.workload);
    let result = match args.workload.as_str() {
        "geo_window" => geo::run(&args, &work),
        "telemetry_ingest" => telemetry::run(&args, &work),
        _ => columns::run(&args, &work),
    };
    drop(work);
    match result {
        Ok(report) => finish(&args, report),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn finish(args: &Args, report: Report) -> ExitCode {
    if args.trace {
        if let Err(e) = trace::write_report(&args.workload, args.seed) {
            eprintln!("perfbench: writing the trace failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let correct = report.failed == 0 && report.mismatches.is_empty();
    for m in &report.mismatches {
        eprintln!("perfbench: check failed: {m}");
    }
    println!("{}", report.to_json(args.trace, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
