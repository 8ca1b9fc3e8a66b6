//! Command-line entry point of the session benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path sessionbench/Cargo.toml -- \
//!     --workload pricing-sweep --seed 11 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Scratch files go under `.bench_work/`
//! in the current directory and are removed before exit. Context lines
//! (`# key=value`), the output digest and any failed checks are printed
//! first; the last line is the JSON result.

use riskpipe_sessionbench::{inputs, Options, Size, Workload};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: riskpipe-sessionbench --workload <pricing-sweep|portfolio-plan|contract-requests> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    // Every file the program writes — disk tiers, stores, and the
    // shuffle spills that default to the temp dir — stays under the
    // current directory. Set before any thread starts.
    let work_dir = match std::env::current_dir() {
        Ok(cwd) => {
            cwd.join(".bench_work")
                .join(format!("{}-{}", workload.name(), std::process::id()))
        }
        Err(e) => return usage(&format!("no current directory: {e}")),
    };
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        return usage(&format!("cannot create {}: {e}", work_dir.display()));
    }
    std::env::set_var("TMPDIR", &work_dir);

    let outcome = riskpipe_sessionbench::run(&Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        work_dir: work_dir.clone(),
        corrupt_reference: false,
    });
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Some(parent) = work_dir.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }

    for (key, value) in &outcome.context {
        println!("# {key}={value}");
    }
    println!("# digest={:016x}", outcome.digest);
    for note in outcome.checks.notes() {
        println!("# FAILED {note}");
    }
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
