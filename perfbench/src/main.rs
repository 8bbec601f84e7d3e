//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a provenance line and, as the last line of standard output,
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! `--workload all` runs every workload in turn and prints a table of
//! the end-to-end metrics instead. Exit codes: 0 success, 1 a run failed
//! the correctness gate, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use vm1_perfbench::workload::WORKLOADS;
use vm1_perfbench::{run, Args, Report};

fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(mut args: Args) -> Report {
    args.trace_dir = Some(trace_dir());
    let report = run(&args);
    for f in &report.failures {
        eprintln!("perfbench: gate: {f}");
    }
    report
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let all = argv
        .windows(2)
        .position(|w| w[0] == "--workload" && w[1] == "all");
    if let Some(i) = all {
        let mut ok = true;
        for wl in WORKLOADS {
            argv[i + 1] = wl.name.to_owned();
            let args = match Args::parse(&argv) {
                Ok(a) => a,
                Err(e) => return usage(&e),
            };
            let report = run_one(args);
            ok &= report.correct;
            for mt in &report.metrics {
                println!(
                    "{:<18} {:<36} {:>16} {}",
                    wl.name, mt.name, mt.value, mt.unit
                );
            }
            println!(
                "{:<18} {:<36} {:>16} {}/{}",
                wl.name, "failed/attempted", "", report.failed, report.attempted
            );
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let report = run_one(args);
    println!("{{\"provenance\": {}}}", report.provenance);
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "perfbench: {err}\nusage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
         [--scale F] [--designs N] [--threads N]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}
