//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints human-readable notes, then one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace
//! 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. `--workload all` runs every workload in turn, each in
//! its own process so that each reports its own peak memory.

use std::process::{Command, ExitCode};

use perfbench::{Options, Scale, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <shard_pages|fork_merge|replay_ckpt|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&args);
    }
    match perfbench::run(&opts) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for m in &report.metrics {
                println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload with the same arguments, one child process each,
/// waiting for each to end.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed --workload")
            + 1;
        child_args[at] = w.to_string();
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
