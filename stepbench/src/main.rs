//! `stepbench`: run one training-step workload and print its metrics.
//!
//! ```text
//! stepbench --workload <dev_dba|fabric_h4|tiered_ckpt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when an output check or an API call failed, 2 on bad arguments.

use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match stepbench::Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("stepbench: {e}");
            return ExitCode::from(2);
        }
    };
    match stepbench::run(&opts) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("stepbench: {e}");
            ExitCode::from(2)
        }
    }
}
