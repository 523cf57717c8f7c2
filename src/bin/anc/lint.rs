//! `anc lint` — run the a-priori nest-normalization analysis on each
//! file, reporting AN06xx findings; `--fix` writes the normalized
//! program back in place when the rewrites applied cleanly.
//!
//! Lint stops before compiling, so it reads and parses the source
//! itself instead of going through the compile front door; it lowers
//! the normalized program only to reject loop bounds and array extents
//! that leave `i64`, as every compile does.

use crate::cli::Args;
use crate::compile::read_source;
use crate::Stop;
use access_normalization::ir::Program;
use access_normalization::lang::{lexer, lower::lower, parser, print::print_program};
use std::process::ExitCode;

pub fn run(args: &Args) -> Result<ExitCode, Stop> {
    let json = args.on("--json");
    let fix = args.on("--fix");
    let deny_warnings = args.on("--deny-warnings");
    if fix && args.inputs.iter().any(|i| i == "-") {
        return Err(args.usage("--fix cannot rewrite stdin; pass a file path"));
    }

    let many = args.inputs.len() > 1;
    let mut failed = false;
    for input in &args.inputs {
        let src = read_source(args, input)?;
        let ast = match lexer::lex(&src).and_then(|t| parser::parse_tokens(&t)) {
            Ok(ast) => ast,
            Err(e) => {
                eprintln!("anc: {input}: {e}");
                failed = true;
                continue;
            }
        };
        let normalized = access_normalization::normal::normalize(&ast, &Default::default());
        let out_of_range = |p: Program| {
            let params = p.default_param_values();
            p.nest.reach(&params).and(p.check_extents(&params)).err()
        };
        if let Some(e) = lower(&normalized.ast).ok().and_then(out_of_range) {
            eprintln!("anc: {input}: {e}");
            failed = true;
            continue;
        }
        let report = &normalized.report;
        if json {
            println!("{}", report.to_json());
        } else {
            if many {
                println!("== {input} ==");
            }
            println!("{}", report.render_human());
        }
        if report.has_errors() {
            failed = true;
        } else if fix && normalized.changed {
            let fixed = print_program(&normalized.ast);
            access_normalization::obs::write_atomic(std::path::Path::new(input), &fixed)
                .map_err(|e| args.usage(format!("cannot rewrite {input}: {e}")))?;
            eprintln!("anc: rewrote {input}");
        }
        if deny_warnings && !report.diagnostics.is_empty() {
            failed = true;
        }
    }
    Ok(ExitCode::from(u8::from(failed)))
}
