//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run fingerprint line, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`).

use apr_perfbench::report::{fingerprint_line, RunResult, RECORDER_ON};
use apr_perfbench::workload::Workload;
use apr_perfbench::{serve, stepping};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = args.workload.threads();
    apr_exec::set_threads(threads);
    let result: RunResult = match (args.workload, args.trace) {
        (Workload::ServeSweep, false) => serve::run(args.seed, args.seconds),
        (Workload::ServeSweep, true) => {
            let (mut r, traced) = serve::run_traced(args.seed, args.seconds);
            traced.report(&mut r);
            r
        }
        (w, false) => stepping::run(w, args.seed, args.seconds),
        (w, true) => {
            let (mut r, traced) = stepping::run_traced(w, args.seed, args.seconds);
            traced.report(&mut r);
            r
        }
    };
    for reason in &result.failures {
        eprintln!("perfbench: check failed: {reason}");
    }
    let recorder_off = !result.failures.iter().any(|f| f == RECORDER_ON);
    println!(
        "{}",
        fingerprint_line(
            args.workload.name(),
            args.seed,
            threads,
            args.trace,
            recorder_off
        )
    );
    println!("{}", result.to_json_line());
    ExitCode::SUCCESS
}
