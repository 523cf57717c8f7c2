//! `anc fuzz` — the seeded in-tree compiler fuzzer: every generator
//! archetype of `access_normalization::fuzz`, failing on any panic or
//! differential mismatch.

use crate::cli::Args;
use crate::Stop;
use access_normalization::fuzz::{run as fuzz, FuzzOptions};
use std::process::ExitCode;

pub fn run(args: &Args) -> Result<ExitCode, Stop> {
    let defaults = FuzzOptions::default();
    let opts = FuzzOptions {
        seed: args.seed(defaults.seed)?,
        iters: args.number_or("--iters", defaults.iters)?,
    };
    let report = fuzz(&opts);
    println!("{report}");
    Ok(ExitCode::from(u8::from(!report.clean())))
}
