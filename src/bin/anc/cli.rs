//! The one description of `anc`'s command line: a table of commands
//! and their flags, the only loop over argv, the `--help` text
//! generated from that table, and one typed accessor per notion that
//! several subcommands share (machine, processor counts, `NAME=V`
//! bindings, pricing, jobs, seed, trace destination).
//!
//! The parser knows three flag shapes — a switch, `--flag VALUE` and
//! `--trace[=FILE]` — because those are the three in use.

use crate::Stop;
use access_normalization::autodist::Pricing;
use access_normalization::numa::MachineConfig;
use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// How a flag consumes argv.
enum Shape {
    Switch,
    /// `--flag VALUE`: the next argv word, whatever it looks like.
    Value,
    /// `--trace` or `--trace=FILE`, the one attached operand there is.
    Trace,
}

enum Inputs {
    None,
    One,
    Many,
}

pub struct Command {
    /// The word after `anc`, which `main` dispatches on; empty for the
    /// compile driver.
    pub name: &'static str,
    about: &'static str,
    inputs: Inputs,
    /// One row per flag, and the row is the flag's `--help` line:
    /// `--flag`, `--flag METAVAR` or `--flag[=FILE]`, two or more
    /// spaces, one line of help.
    flags: &'static [&'static str],
}

const NAIVE: &str = "--naive             skip restructuring (identity transform)";
const NO_TRANSFERS: &str = "--no-transfers      disable block-transfer insertion";
const NO_PRENORMALIZE: &str = "--no-prenormalize   reject messy nests (AN06xx), never rewrite them";
const DENY_WARNINGS: &str = "--deny-warnings     exit 1 on any finding, not just errors";
const MACHINE: &str = "--machine M         gp1000 (default) | ipsc";
const PARAM: &str = "--param NAME=V      override a parameter's default (repeatable)";
const JOBS: &str = "--jobs N            threads (default 0: all cores); never changes a number";
const PRICE: &str = "--price MODE        model (analytic, default) | sim (exact simulator)";
/// The words `--price` takes; the first is the default.
const PRICINGS: [(&str, Pricing); 2] = [("model", Pricing::Model), ("sim", Pricing::Sim)];
const TRACE: &str = "--trace[=FILE]      record a structured pipeline trace (stderr, or FILE)";
const TRACE_FORMAT: &str = "--trace-format F    tree (default) | jsonl | chrome";

static COMMANDS: [Command; 8] = [
    Command {
        name: "",
        about: "compile one kernel and print what the pipeline derived",
        inputs: Inputs::One,
        flags: &[
            "--emit WHAT         all (default) | ir | matrix | transform | transformed | spmd | \
             deps | c | ownership",
            NAIVE,
            NO_TRANSFERS,
            "--ordering H        distribution (default) | program | contiguity",
            "--simulate LIST     comma-separated processor counts to simulate",
            MACHINE,
            PARAM,
            "--strides           print the innermost-loop stride report",
            "--autodist P        search per-array distributions for P processors",
            PRICE,
            JOBS,
            "--verify            fail the compile (and search candidates) on verifier errors",
            "--explain           narrate every pipeline decision",
            NO_PRENORMALIZE,
            TRACE,
            TRACE_FORMAT,
            "--deadline-ms N     budget: wall-clock deadline for the compile",
            "--max-fm-constraints N  budget: Fourier-Motzkin constraint ceiling",
            "--max-depth N       budget: deepest loop nest accepted",
            "--max-candidates N  budget: distribution-search candidate ceiling",
        ],
    },
    Command {
        name: "sweep",
        about: "price one compile over a machines x processors x parameters grid",
        inputs: Inputs::One,
        flags: &[
            "--procs LIST        processor counts (default: 1,2,4,8,16,28)",
            "--machines LIST     gp1000,ipsc (default: gp1000)",
            "--params LIST       one full parameter vector; each use adds a grid entry",
            JOBS,
            NAIVE,
            NO_TRANSFERS,
            "--verify            reject the compile on verifier errors",
            PRICE,
            "--json FILE         also write the report as JSON (-: stdout, table to stderr)",
            TRACE,
            TRACE_FORMAT,
        ],
    },
    Command {
        name: "check",
        about: "independent soundness verification of the compiled artifacts",
        inputs: Inputs::Many,
        flags: &[
            DENY_WARNINGS,
            "--json              print machine-readable reports",
            NAIVE,
            NO_TRANSFERS,
            NO_PRENORMALIZE,
            PARAM,
            "--mutate KIND       corrupt the artifacts first (self-test, must exit 1): \
             flip-transform-sign | widen-bound | narrow-bound | drop-transfer | skew-ownership",
        ],
    },
    Command {
        name: "lint",
        about: "a-priori nest normalization lints (AN06xx)",
        inputs: Inputs::Many,
        flags: &[
            "--json              machine-readable report per file",
            "--fix               rewrite each cleanly normalized file in place (not stdin)",
            DENY_WARNINGS,
        ],
    },
    Command {
        name: "chaos",
        about: "deterministic fault injection: prove recovery, then price it",
        inputs: Inputs::One,
        flags: &[
            "--seed N            scenario seed (default: 1)",
            "--scenario S        failstop | double-failstop | drop | delay | spike | mixed | \
             all (default)",
            "--procs LIST        processor counts (default: 3,4)",
            MACHINE,
            PARAM,
            NAIVE,
            "--json              machine-readable report, no wall-clock fields",
            TRACE,
            TRACE_FORMAT,
        ],
    },
    Command {
        name: "profile",
        about: "one traced compile + simulation as a phase and counter table",
        inputs: Inputs::One,
        flags: &[
            "--json              machine-readable profile on stdout (logical clocks only)",
            "--wall              include wall-clock microseconds (non-deterministic)",
            "--top N             also rank the N most expensive spans by self cost",
            "--procs N           processor count to simulate (default: 4)",
            MACHINE,
            PARAM,
            "--out FILE          JSON path",
        ],
    },
    Command {
        name: "fuzz",
        about: "seeded in-tree fuzzer: exit 1 on any panic or differential mismatch",
        inputs: Inputs::None,
        flags: &[
            "--seed N            PRNG seed (default: 42)",
            "--iters N           iterations (default: 200)",
        ],
    },
    Command {
        name: "serve",
        about: "fault-isolated compile daemon speaking JSON lines",
        inputs: Inputs::None,
        flags: &[
            "--stdio             serve stdin/stdout (default; excludes --socket and --tcp)",
            "--socket PATH       listen on a unix socket",
            "--tcp ADDR          listen on a TCP address (port 0: ephemeral, announced)",
            "--workers N         worker threads (default 0: all cores)",
            "--queue N           admission queue capacity; beyond it requests shed (AN0707)",
            "--deadline-ms N     default per-request compile deadline",
            "--max-frame-bytes N  largest accepted request frame (AN0702)",
            "--retry-after-ms N  base retry hint on a shed request",
            "--retry-jitter-seed N  seed of the retry-hint jitter",
            "--cache-dir PATH    persist compiles here and reload them on restart",
            "--cache-cap BYTES   resident cache budget (default 65536; LRU, demotes to --cache-dir)",
            "--quarantine-cap N  poison-pill quarantine entries kept",
            "--max-conns N       concurrent connections accepted",
            "--frame-deadline-ms N  drop a connection whose frame stalls this long",
        ],
    },
];

impl Command {
    /// `anc` or `anc <name>`: how diagnostics and usage name the command.
    fn prog(&self) -> String {
        format!("anc {}", self.name).trim_end().to_string()
    }

    /// The table's name for the flag `name`, and the flag's shape.
    fn flag(&self, name: &str) -> Option<(&'static str, Shape)> {
        let spellings = self.flags.iter().filter_map(|row| row.split("  ").next());
        let mut flags = spellings.map(|s| match (s.split_once(' '), s.strip_suffix("[=FILE]")) {
            (Some((flag, _metavar)), _) => (flag, Shape::Value),
            (None, Some(flag)) => (flag, Shape::Trace),
            (None, None) => (s, Shape::Switch),
        });
        flags.find(|(flag, _)| *flag == name)
    }

    /// The most inputs the command takes, and how its usage line shows them.
    fn operands(&self) -> (usize, &'static str) {
        match self.inputs {
            Inputs::None => (0, ""),
            Inputs::One => (1, " <file.an | ->"),
            Inputs::Many => (usize::MAX, " <file.an | ->..."),
        }
    }

    fn help(&self) -> String {
        let mut out = format!("usage: {} [OPTIONS]{}\n", self.prog(), self.operands().1);
        if self.name.is_empty() {
            out.push_str("       anc <command> [OPTIONS] ...\n");
        }
        let _ = writeln!(out, "\n{}\n\noptions:", self.about);
        for row in self.flags {
            let _ = writeln!(out, "  {row}");
        }
        out.push_str("  -h, --help          print this help\n");
        if self.name.is_empty() {
            out.push_str("\ncommands (each has its own --help):\n");
            for cmd in &COMMANDS[1..] {
                let _ = writeln!(out, "  {:<18}  {}", cmd.name, cmd.about);
            }
            out.push_str(
                "\nexit codes: 0 success, 1 compile/verification/fuzz failure, 2 usage error,\n\
                 3 internal compiler panic (always a bug)\n",
            );
        }
        out
    }
}

/// One parsed command line.
pub struct Args {
    pub cmd: &'static Command,
    /// Every flag of argv in order, with its operand if it took one.
    given: Vec<(&'static str, Option<String>)>,
    pub inputs: Vec<String>,
}

/// Parses argv (without the program name) against the command table.
pub fn parse(argv: &[String]) -> Result<Args, Stop> {
    let subcommand = |word: &String| COMMANDS[1..].iter().find(|c| c.name == word);
    let (cmd, rest) = match argv.first().and_then(subcommand) {
        Some(cmd) => (cmd, &argv[1..]),
        None => (&COMMANDS[0], argv),
    };
    let mut args = Args {
        cmd,
        given: Vec::new(),
        inputs: Vec::new(),
    };
    let mut it = rest.iter();
    while let Some(word) = it.next() {
        if word == "--help" || word == "-h" {
            return Err(Stop::Help(cmd.help()));
        }
        // `=FILE` attaches to `--trace` alone: no general `--flag=value`.
        let (name, file) = match word.split_once('=') {
            Some((name, file)) => (name, Some(file.to_string())),
            None => (word.as_str(), None),
        };
        match cmd.flag(name) {
            Some((name, Shape::Trace)) => args.given.push((name, file)),
            Some((name, Shape::Switch)) if file.is_none() => args.given.push((name, None)),
            Some((name, Shape::Value)) if file.is_none() => match it.next() {
                Some(v) => args.given.push((name, Some(v.clone()))),
                None => return Err(args.usage(format!("{name} needs a value"))),
            },
            // An unrecognized option is a usage error, not a file name:
            // "cannot read --bogus" misdiagnoses a typo as a missing
            // input. A lone `-` is stdin.
            _ if word.len() > 1 && word.starts_with('-') => {
                return Err(args.usage(format!("unknown option '{word}'")));
            }
            _ => args.inputs.push(word.clone()),
        }
    }
    let most = cmd.operands().0;
    if let Some(extra) = args.inputs.get(most) {
        return Err(args.usage(format!("unexpected argument '{extra}'")));
    }
    if most > 0 && args.inputs.is_empty() {
        return Err(args.usage("missing input file (see --help)"));
    }
    Ok(args)
}

impl Args {
    /// A usage error attributed to this command.
    pub fn usage(&self, msg: impl Display) -> Stop {
        Stop::Usage(format!("{}: {msg}", self.cmd.prog()))
    }

    /// The usage error for a flag's value.
    pub fn bad(&self, name: &str, got: &str, expected: &str) -> Stop {
        self.usage(format!("bad {name} '{got}' (expected {expected})"))
    }

    /// The operands `name` was given with, in argv order. Asking for a
    /// flag the command's table does not list is a bug in the caller.
    fn operands<'a>(&'a self, name: &'a str) -> impl Iterator<Item = Option<&'a str>> {
        let listed = self.cmd.flag(name).is_some();
        assert!(listed, "{name} is not a flag of '{}'", self.cmd.prog());
        let of_name = self.given.iter().filter(move |(n, _)| *n == name);
        of_name.map(|(_, operand)| operand.as_deref())
    }

    pub fn on(&self, name: &str) -> bool {
        self.operands(name).next().is_some()
    }

    /// Every value of a repeatable `--flag VALUE`.
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.operands(name).flatten()
    }

    /// The value of `--flag VALUE`; the last occurrence wins.
    pub fn value<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.values(name).last()
    }

    pub fn input(&self) -> &str {
        &self.inputs[0]
    }

    /// The value of `name` through `parse`; `expected` completes the
    /// diagnostic when `parse` rejects it.
    fn parsed<T>(
        &self,
        name: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, Stop> {
        let Some(got) = self.value(name) else {
            return Ok(None);
        };
        let parsed = parse(got).map(Some);
        parsed.ok_or_else(|| self.bad(name, got, expected))
    }

    /// A non-negative integer flag.
    pub fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, Stop> {
        self.parsed(name, "a non-negative integer", |got| got.parse().ok())
    }

    pub fn number_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, Stop> {
        Ok(self.number(name)?.unwrap_or(default))
    }

    /// A flag whose value is one of a closed set of words.
    pub fn choice<T: Copy>(&self, name: &str, of: &[(&str, T)]) -> Result<Option<T>, Stop> {
        let words: Vec<&str> = of.iter().map(|(word, _)| *word).collect();
        let pick = |got: &str| of.iter().find(|(word, _)| *word == got).map(|(_, t)| *t);
        self.parsed(name, &format!("one of {}", words.join(", ")), pick)
    }

    /// `--machine M`; the default is the paper's GP1000.
    pub fn machine(&self) -> Result<MachineConfig, Stop> {
        let machine = self.parsed("--machine", "gp1000 or ipsc", machine_named)?;
        Ok(machine.unwrap_or_else(MachineConfig::butterfly_gp1000))
    }

    /// `--machines LIST`, with the same default.
    pub fn machines(&self) -> Result<Vec<MachineConfig>, Stop> {
        let all = |list: &str| list.split(',').map(machine_named).collect();
        let machines = self.parsed("--machines", "a list of gp1000, ipsc", all)?;
        Ok(machines.unwrap_or_else(|| vec![MachineConfig::butterfly_gp1000()]))
    }

    /// A flag naming a single processor count.
    pub fn procs(&self, name: &str) -> Result<Option<usize>, Stop> {
        self.parsed(name, "a positive processor count", proc_count)
    }

    /// A flag naming a comma-separated list of processor counts.
    pub fn procs_list(&self, name: &str, default: &[usize]) -> Result<Vec<usize>, Stop> {
        let all = |list: &str| list.split(',').map(proc_count).collect();
        let counts = self.parsed(name, "positive processor counts: P1,P2,..", all)?;
        Ok(counts.unwrap_or_else(|| default.to_vec()))
    }

    /// Every `--param NAME=V` binding, in argv order.
    pub fn bindings(&self) -> Result<Vec<(String, i64)>, Stop> {
        let binding = |kv: &str| {
            let (name, v) = kv
                .split_once('=')
                .filter(|(name, _)| !name.trim().is_empty())?;
            Some((name.trim().to_string(), v.trim().parse().ok()?))
        };
        let malformed = |kv| self.usage(format!("malformed --param '{kv}' (expected NAME=INT)"));
        let bound = |kv| binding(kv).ok_or_else(|| malformed(kv));
        self.values("--param").map(bound).collect()
    }

    /// `--price MODE`; the analytic model unless `--price sim`.
    pub fn pricing(&self) -> Result<Pricing, Stop> {
        Ok(self.choice("--price", &PRICINGS)?.unwrap_or_default())
    }

    /// `--jobs N`; 0, the default, means all cores.
    pub fn jobs(&self) -> Result<usize, Stop> {
        self.number_or("--jobs", 0)
    }

    pub fn seed(&self, default: u64) -> Result<u64, Stop> {
        self.number_or("--seed", default)
    }

    /// Where `--trace[=FILE]` sends the trace: `None` is an untraced
    /// run, `Some(None)` stderr.
    pub fn trace_file(&self) -> Option<Option<&str>> {
        self.operands("--trace").last()
    }
}

/// The one place a machine name is resolved.
fn machine_named(name: &str) -> Option<MachineConfig> {
    match name.trim() {
        "gp1000" => Some(MachineConfig::butterfly_gp1000()),
        "ipsc" => Some(MachineConfig::ipsc_i860()),
        _ => None,
    }
}

/// The `--price` word that selects `pricing`.
pub fn price_word(pricing: Pricing) -> &'static str {
    let row = PRICINGS.iter().find(|(_, p)| *p == pricing);
    row.expect("every pricing has a --price word").0
}

/// One processor count. Zero is rejected here, for every flag that
/// counts processors: nothing can run on no processors, and the search
/// would otherwise "succeed" having skipped every candidate.
fn proc_count(got: &str) -> Option<usize> {
    got.trim().parse().ok().filter(|p| *p > 0)
}
