//! `e2ebench --workload <wire_read|durable_ingest|what_if> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints its report,
//! ending with one JSON line (see `README.md`).

use std::path::PathBuf;
use std::process::ExitCode;

use e2ebench::report::{END_TO_END, PER_LAYER};
use e2ebench::workloads::{durable_ingest, what_if, wire_read, Args};

const USAGE: &str =
    "usage: e2ebench --workload <wire_read|durable_ingest|what_if> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".e2ebench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 || !args.seconds.is_finite() {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "wire_read" => wire_read::run(&args),
        "durable_ingest" => durable_ingest::run(&args),
        "what_if" => what_if::run(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if report.attempted == 0 {
        report.check_failed("no op was attempted");
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    report.print(if args.trace { &PER_LAYER } else { &END_TO_END });
    ExitCode::SUCCESS
}
