//! `anc check` — compile each file and run the independent soundness
//! verifier over the artifacts, printing structured diagnostics.

use crate::cli::Args;
use crate::compile::build;
use crate::Stop;
use access_normalization::codegen::SpmdOptions;
use access_normalization::verify_mod::{
    apply_mutation, verify_artifacts_in, ConcreteContext, Mutation,
};
use access_normalization::{verify_options_for, verify_with, CompileOptions};
use std::process::ExitCode;

pub fn run(args: &Args) -> Result<ExitCode, Stop> {
    let deny_warnings = args.on("--deny-warnings");
    let json = args.on("--json");
    let params = args.bindings()?;
    let mutate = args.choice("--mutate", &Mutation::all().map(|m| (m.name(), m)))?;
    let opts = CompileOptions {
        spmd: SpmdOptions {
            block_transfers: !args.on("--no-transfers"),
        },
        skip_transform: args.on("--naive"),
        skip_prenormalize: args.on("--no-prenormalize"),
        ..CompileOptions::default()
    };
    let verify_opts = verify_options_for(&opts);
    let many = args.inputs.len() > 1;
    let mut failed = false;
    for input in &args.inputs {
        // One file failing to compile does not stop the others from
        // being checked; a usage error (unreadable file, unknown
        // `--param` name) does.
        let built = match build(args, input, &opts, &params, true) {
            Ok(built) => built,
            Err(Stop::Failed(e)) => {
                eprintln!("anc: {input}: {e}");
                failed = true;
                continue;
            }
            Err(stop) => return Err(stop),
        };
        let compiled = &built.compiled;
        let mut report = match mutate {
            None => verify_with(compiled, &verify_opts),
            Some(m) => {
                // One concrete context: the mutation picks its target
                // from it, and the verifier rebuilds its own from it.
                let ctx = ConcreteContext::build(
                    &compiled.program,
                    &compiled.transformed.program,
                    verify_opts.max_points,
                );
                let (mtp, mspmd) = match apply_mutation(
                    &compiled.program,
                    &compiled.transformed,
                    &compiled.spmd,
                    m,
                    ctx.as_ref(),
                ) {
                    Ok(artifacts) => artifacts,
                    Err(e) => {
                        eprintln!("anc: {input}: cannot apply mutation {}: {e}", m.name());
                        failed = true;
                        continue;
                    }
                };
                verify_artifacts_in(&compiled.program, &mtp, &mspmd, &verify_opts, ctx.as_ref())
            }
        };
        report.attach_spans(&built.spans);
        if json {
            println!("{}", report.to_json());
        } else {
            if many {
                println!("== {input} ==");
            }
            println!("{}", report.render_human());
        }
        if report.has_errors() || (deny_warnings && report.warning_count() > 0) {
            failed = true;
        }
    }
    Ok(ExitCode::from(u8::from(failed)))
}
