//! `anc` — the access-normalization compiler driver.
//!
//! `anc [OPTIONS] <file.an | ->` compiles one kernel; `sweep`, `check`,
//! `lint`, `chaos`, `profile`, `fuzz` and `serve` are subcommands, one
//! module each. The flags of each are rows of the table in `cli.rs`,
//! which is also what `anc --help` and `anc <command> --help` print —
//! there is no second list here to fall out of date.
//!
//! Exit codes: 0 success, 1 compile/verification/fuzz failure, 2 usage
//! error (exactly one stderr line naming the command and the flag), 3
//! internal compiler panic (always a bug).
//!
//! Examples:
//!
//! ```text
//! anc --simulate 1,4,16 --emit spmd examples/kernels/gemm.an
//! anc sweep --procs 1,8,28 --params 200 --params 400 examples/kernels/gemm.an
//! anc check --deny-warnings examples/kernels/*.an
//! anc check --mutate flip-transform-sign examples/kernels/gemm.an  # must fail
//! anc chaos --seed 2 --scenario failstop --param N=24 examples/kernels/gemm.an
//! ```

mod chaos;
mod check;
mod cli;
mod compile;
mod fuzz;
mod lint;
mod profile;
mod serve;
mod sweep;

use std::process::ExitCode;

/// How a run ends early. `main` alone prints these and picks the exit
/// code, so no module below it calls `process::exit`.
pub enum Stop {
    /// `--help`: the usage text, on stdout, exit 0.
    Help(String),
    /// A usage error: one stderr line naming command and flag, exit 2.
    Usage(String),
    /// A compile, verification or I/O failure: its message, printed as
    /// `anc: <message>` on stderr, exit 1.
    Failed(String),
}

/// The exit-1 [`Stop`] every pipeline error maps to.
pub fn failed(e: impl std::fmt::Display) -> Stop {
    Stop::Failed(e.to_string())
}

fn run() -> Result<ExitCode, Stop> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv)?;
    match args.cmd.name {
        "sweep" => sweep::run(&args),
        "check" => check::run(&args),
        "lint" => lint::run(&args),
        "chaos" => chaos::run(&args),
        "profile" => profile::run(&args),
        "fuzz" => fuzz::run(&args),
        "serve" => serve::run(&args),
        _ => compile::run(&args),
    }
}

fn main() -> ExitCode {
    // A panic that crosses this boundary is always a bug — report it as
    // such (exit 3) instead of dumping a backtrace at the user.
    match std::panic::catch_unwind(run) {
        Ok(Ok(code)) => code,
        Ok(Err(Stop::Help(text))) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Ok(Err(Stop::Usage(line))) => {
            eprintln!("{line}");
            ExitCode::from(2)
        }
        Ok(Err(Stop::Failed(msg))) => {
            eprintln!("anc: {msg}");
            ExitCode::FAILURE
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_string());
            eprintln!("anc: internal compiler error: {msg}");
            eprintln!("anc: this is a bug; please report it with the input that caused it");
            ExitCode::from(3)
        }
    }
}
