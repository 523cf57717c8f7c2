//! Shared structured-diagnostics layer.
//!
//! Two independent lint families report findings against source
//! programs: the soundness verifier (`an-verify`, codes `AN01xx`–
//! `AN05xx`) and the nest normalizer (`an-normal`, codes `AN06xx`).
//! Both must print and serialize identically — one renderer, one span
//! attachment rule, one JSON shape — so tools that consume `anc check
//! --json` can consume `anc lint --json` unchanged. This crate holds
//! that common machinery; each family supplies only its code enum via
//! the [`DiagCode`] trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use an_lang::token::Pos;
use an_lang::SpanMap;
use std::fmt;

/// A stable diagnostic code: every finding a tool can produce carries
/// one, so tests and CI can assert on exactly *which* invariant was
/// violated, not just that something failed.
pub trait DiagCode: Copy + Eq + fmt::Debug {
    /// The stable `AN0xxx` string for this code.
    fn as_str(self) -> &'static str;
    /// The default severity of this code.
    fn default_severity(self) -> Severity;
    /// One-line description for the code table in documentation output.
    fn description(self) -> &'static str;
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note attached to a location.
    Info,
    /// Suspicious but not proven unsound.
    Warning,
    /// Proven violation of a soundness invariant.
    Error,
}

impl Severity {
    /// Lower-case name as rendered in output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// What program entity a diagnostic points at. Indices refer to the
/// lowered program (statement order, array declaration order, loop
/// nesting depth); [`Report::attach_spans`] resolves them to source
/// positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// The program as a whole.
    Program,
    /// Innermost statement `idx`.
    Stmt(usize),
    /// Array declaration `idx`.
    Array(usize),
    /// Loop level `idx` (0 = outermost).
    Loop(usize),
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic<C: DiagCode> {
    /// Stable code.
    pub code: C,
    /// Severity (defaults to [`DiagCode::default_severity`]).
    pub severity: Severity,
    /// Human-readable explanation with the offending data inlined.
    pub message: String,
    /// The entity the finding points at.
    pub anchor: Anchor,
    /// Source position, when a [`SpanMap`] has been attached or the
    /// producer knew the position directly.
    pub span: Option<Pos>,
    /// Optional fix-it note: what a tool (or the user) can do about it.
    pub help: Option<String>,
}

impl<C: DiagCode> Diagnostic<C> {
    /// A diagnostic with the code's default severity and no span.
    pub fn new(code: C, anchor: Anchor, message: String) -> Diagnostic<C> {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message,
            anchor,
            span: None,
            help: None,
        }
    }

    /// Overrides the code's default severity (e.g. a lint that is
    /// informational when a rewrite applies but an error when it does
    /// not).
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Diagnostic<C> {
        self.severity = severity;
        self
    }

    /// Attaches a fix-it note.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic<C> {
        self.help = Some(help.into());
        self
    }

    /// Attaches a source position directly (producers that analyze the
    /// AST know positions without a [`SpanMap`]).
    #[must_use]
    pub fn at(mut self, pos: Pos) -> Diagnostic<C> {
        self.span = Some(pos);
        self
    }
}

impl<C: DiagCode> fmt::Display for Diagnostic<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity.as_str(), self.code.as_str())?;
        if let Some(pos) = self.span {
            write!(f, " at {pos}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The full result of one analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report<C: DiagCode> {
    /// All findings, in check order.
    pub diagnostics: Vec<Diagnostic<C>>,
    /// Non-diagnostic remarks about what was (or could not be) checked.
    pub notes: Vec<String>,
    /// The parameter values used for concrete cross-checks, when a
    /// small-enough instantiation existed.
    pub checked_params: Option<Vec<i64>>,
    /// The word naming this lint family in summaries ("verification",
    /// "lint").
    pub label: &'static str,
}

impl<C: DiagCode> Default for Report<C> {
    fn default() -> Self {
        Report {
            diagnostics: Vec::new(),
            notes: Vec::new(),
            checked_params: None,
            label: "verification",
        }
    }
}

impl<C: DiagCode> Report<C> {
    /// An empty report whose summary lines use `label`.
    pub fn with_label(label: &'static str) -> Report<C> {
        Report {
            label,
            ..Report::default()
        }
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-severity findings.
    pub fn info_count(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// `true` when no diagnostics at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// The codes of all findings, in order (convenient for asserting on
    /// mutation-detection outcomes).
    pub fn codes(&self) -> Vec<C> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Resolves every diagnostic's anchor against a source [`SpanMap`],
    /// filling in [`Diagnostic::span`].
    pub fn attach_spans(&mut self, map: &SpanMap) {
        for d in &mut self.diagnostics {
            d.span = match d.anchor {
                Anchor::Program => map.loop_level(0),
                Anchor::Stmt(i) => map.stmt(i),
                Anchor::Array(i) => map.array(i),
                Anchor::Loop(i) => map.loop_level(i),
            };
        }
    }

    /// Renders the report for terminals: one line per diagnostic (plus
    /// an indented `help:` line when a fix-it note exists), then notes,
    /// then a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
            if let Some(h) = &d.help {
                out.push_str("  help: ");
                out.push_str(h);
                out.push('\n');
            }
        }
        for n in &self.notes {
            out.push_str("note: ");
            out.push_str(n);
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)\n",
            self.label,
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Renders the report as a JSON object (machine-readable `--json`
    /// output, shared byte-for-byte between `anc check` and `anc lint`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"",
                d.code.as_str(),
                d.severity.as_str(),
                escape_json(&d.message)
            ));
            match d.anchor {
                Anchor::Program => {}
                Anchor::Stmt(i) => out.push_str(&format!(", \"stmt\": {i}")),
                Anchor::Array(i) => out.push_str(&format!(", \"array\": {i}")),
                Anchor::Loop(i) => out.push_str(&format!(", \"loop\": {i}")),
            }
            if let Some(pos) = d.span {
                out.push_str(&format!(", \"line\": {}, \"col\": {}", pos.line, pos.col));
            }
            if let Some(h) = &d.help {
                out.push_str(&format!(", \"help\": \"{}\"", escape_json(h)));
            }
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape_json(n)));
        }
        out.push_str("],\n");
        match &self.checked_params {
            Some(ps) => {
                let list: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                out.push_str(&format!("  \"checked_params\": [{}],\n", list.join(", ")));
            }
            None => out.push_str("  \"checked_params\": null,\n"),
        }
        out.push_str(&format!(
            "  \"errors\": {},\n  \"warnings\": {}\n}}\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

impl<C: DiagCode> fmt::Display for Report<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed: {} error(s), {} warning(s)",
            self.label,
            self.error_count(),
            self.warning_count()
        )?;
        if let Some(first) = self
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
        {
            write!(f, "; first: {first}")?;
        }
        Ok(())
    }
}

/// Escapes a string for embedding in a JSON string literal (the one
/// escaper, shared with the trace sinks).
pub use an_obs::json_escape as escape_json;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TestCode {
        Alpha,
        Beta,
    }

    impl DiagCode for TestCode {
        fn as_str(self) -> &'static str {
            match self {
                TestCode::Alpha => "AN9901",
                TestCode::Beta => "AN9902",
            }
        }
        fn default_severity(self) -> Severity {
            match self {
                TestCode::Alpha => Severity::Error,
                TestCode::Beta => Severity::Info,
            }
        }
        fn description(self) -> &'static str {
            "test code"
        }
    }

    #[test]
    fn report_counts_and_label() {
        let mut r: Report<TestCode> = Report::with_label("lint");
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic::new(
            TestCode::Alpha,
            Anchor::Loop(1),
            "broken".into(),
        ));
        r.diagnostics.push(Diagnostic::new(
            TestCode::Beta,
            Anchor::Program,
            "noted".into(),
        ));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.info_count(), 1);
        assert_eq!(r.warning_count(), 0);
        let human = r.render_human();
        assert!(human.contains("error[AN9901]"), "{human}");
        assert!(human.contains("lint: 1 error(s), 0 warning(s)"), "{human}");
        assert_eq!(
            format!("{r}"),
            "lint failed: 1 error(s), 0 warning(s); first: error[AN9901]: broken"
        );
    }

    #[test]
    fn help_renders_in_human_and_json_only_when_present() {
        let mut r: Report<TestCode> = Report::default();
        r.diagnostics.push(
            Diagnostic::new(TestCode::Alpha, Anchor::Stmt(0), "bad".into()).with_help("rewrite it"),
        );
        let human = r.render_human();
        assert!(human.contains("  help: rewrite it\n"), "{human}");
        let json = r.to_json();
        assert!(json.contains("\"help\": \"rewrite it\""), "{json}");

        let mut plain: Report<TestCode> = Report::default();
        plain.diagnostics.push(Diagnostic::new(
            TestCode::Alpha,
            Anchor::Stmt(0),
            "bad".into(),
        ));
        assert!(!plain.to_json().contains("help"), "{}", plain.to_json());
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let mut r: Report<TestCode> = Report::default();
        r.diagnostics.push(Diagnostic::new(
            TestCode::Alpha,
            Anchor::Program,
            "a \"quoted\"\nmessage".into(),
        ));
        let json = r.to_json();
        assert!(json.contains("a \\\"quoted\\\"\\nmessage"), "{json}");
    }

    #[test]
    fn at_sets_span_directly() {
        let d = Diagnostic::new(TestCode::Alpha, Anchor::Program, "x".into())
            .at(Pos { line: 3, col: 7 });
        assert_eq!(d.to_string(), "error[AN9901] at 3:7: x");
    }
}
