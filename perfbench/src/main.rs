//! End-to-end and per-layer benchmark of the VDM protocol stack.
//!
//! ```text
//! vdm-perfbench --workload soak|join|wire --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload on one thread and prints, as its last line, one
//! JSON object: whether every output check passed, the operations
//! attempted and failed, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of a run with every layer boundary wrapped
//! (`--trace 1`). See README.md for the workloads and the metrics.

mod common;
mod join;
mod layers;
mod prof;
mod sim;
mod soak;
mod wire;
mod wrap;

use common::Report;

const USAGE: &str =
    "usage: vdm-perfbench --workload soak|join|wire --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "soak" => soak::run,
        "join" => join::run,
        "wire" => wire::run,
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = prof::span("run", || run(args.seed, args.seconds, args.trace));
    if args.trace {
        for s in prof::spans() {
            println!(
                "span {} parent {} start {:.4} s dur {:.4} s",
                s.name,
                s.parent.map_or("-".to_string(), |p| p.to_string()),
                s.start.as_secs_f64(),
                s.dur.as_secs_f64()
            );
        }
    }
    println!("{}", json(&report));
    if !report.correct {
        std::process::exit(1);
    }
}
