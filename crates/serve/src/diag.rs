//! The `AN07xx` serving-diagnostic family.
//!
//! Every failure a daemon request can experience maps to one stable
//! code, in the same [`an_diag::DiagCode`] framework the verifier
//! (`AN01xx`–`AN05xx`) and normalizer (`AN06xx`) use, so clients can
//! branch on `error.code` instead of scraping messages.

use an_diag::{DiagCode, Severity};

/// Stable codes for everything that can go wrong while serving a
/// request. Codes are part of the wire protocol: renaming or renumbering
/// one is a breaking change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServeCode {
    /// `AN0701` — the frame was not a well-formed request: invalid
    /// JSON, unknown verb, or a field of the wrong type.
    Malformed,
    /// `AN0702` — the frame exceeded the configured size limit and was
    /// rejected before parsing.
    FrameTooLarge,
    /// `AN0703` — the pipeline rejected the program with a typed
    /// compile error (parse/legality/codegen/verify).
    CompileFailed,
    /// `AN0704` — a [`CompileBudget`](an_driver::CompileBudget) axis was
    /// exhausted (deadline, fm-constraints, loop-depth, or
    /// search-candidates).
    BudgetExceeded,
    /// `AN0705` — the request panicked inside its fault cell; the
    /// worker survived and the source hash was quarantined.
    Panicked,
    /// `AN0706` — the request's source hash previously panicked a
    /// worker and is quarantined; it was fast-failed without compiling.
    Quarantined,
    /// `AN0707` — the admission queue was full; the request was shed
    /// with a `retry_after_ms` hint.
    Overloaded,
    /// `AN0708` — the daemon is draining and no longer admits new work.
    Draining,
    /// `AN0709` — the request's deadline expired while it was still
    /// queued, before a worker picked it up.
    Timeout,
    /// `AN0710` — a persistent cache entry failed validation on load
    /// (truncated, checksum mismatch, or written by a different format
    /// or pipeline version); it was deleted and the request recompiled.
    /// Clients never see this code on the wire — a corrupt entry is
    /// recovered from transparently — but it appears as a counter in
    /// `status` and in daemon logs.
    CacheCorrupt,
}

/// All codes, in numeric order (for documentation tables).
pub const ALL_CODES: [ServeCode; 10] = [
    ServeCode::Malformed,
    ServeCode::FrameTooLarge,
    ServeCode::CompileFailed,
    ServeCode::BudgetExceeded,
    ServeCode::Panicked,
    ServeCode::Quarantined,
    ServeCode::Overloaded,
    ServeCode::Draining,
    ServeCode::Timeout,
    ServeCode::CacheCorrupt,
];

impl ServeCode {
    /// The `status` counter one answer with this code bumps — the one
    /// table from code to `serve.fault.*` name. `AN0710` is never an
    /// answer: a corrupt entry is counted where it is recovered from.
    pub(crate) fn fault_counter(self) -> &'static str {
        match self {
            ServeCode::Malformed => "serve.fault.malformed",
            ServeCode::FrameTooLarge => "serve.fault.frame_too_large",
            ServeCode::CompileFailed => "serve.fault.compile",
            ServeCode::BudgetExceeded => "serve.fault.budget",
            ServeCode::Panicked => "serve.fault.panic",
            ServeCode::Quarantined => "serve.fault.quarantined",
            ServeCode::Overloaded => "serve.fault.overloaded",
            ServeCode::Draining => "serve.fault.draining",
            ServeCode::Timeout => "serve.fault.timeout",
            ServeCode::CacheCorrupt => "serve.cache.corrupt",
        }
    }
}

impl DiagCode for ServeCode {
    fn as_str(self) -> &'static str {
        match self {
            ServeCode::Malformed => "AN0701",
            ServeCode::FrameTooLarge => "AN0702",
            ServeCode::CompileFailed => "AN0703",
            ServeCode::BudgetExceeded => "AN0704",
            ServeCode::Panicked => "AN0705",
            ServeCode::Quarantined => "AN0706",
            ServeCode::Overloaded => "AN0707",
            ServeCode::Draining => "AN0708",
            ServeCode::Timeout => "AN0709",
            ServeCode::CacheCorrupt => "AN0710",
        }
    }

    fn default_severity(self) -> Severity {
        match self {
            // Load-shedding and draining are operational conditions the
            // client is expected to retry through, not program errors;
            // a corrupt cache entry is self-healed (deleted and
            // recompiled), so it too is a warning, not an error.
            ServeCode::Overloaded | ServeCode::Draining | ServeCode::CacheCorrupt => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }

    fn description(self) -> &'static str {
        match self {
            ServeCode::Malformed => "request frame was not a well-formed protocol message",
            ServeCode::FrameTooLarge => "request frame exceeded the configured size limit",
            ServeCode::CompileFailed => "pipeline rejected the program with a typed compile error",
            ServeCode::BudgetExceeded => "a compile budget axis was exhausted",
            ServeCode::Panicked => "request panicked inside its fault cell and was quarantined",
            ServeCode::Quarantined => "source hash is quarantined after a previous panic",
            ServeCode::Overloaded => "admission queue full; request shed, retry later",
            ServeCode::Draining => "daemon is draining and admits no new work",
            ServeCode::Timeout => "request deadline expired while still queued",
            ServeCode::CacheCorrupt => {
                "persistent cache entry failed validation; deleted and recompiled"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_ordered() {
        let strs: Vec<&str> = ALL_CODES.iter().map(|c| c.as_str()).collect();
        assert_eq!(
            strs,
            [
                "AN0701", "AN0702", "AN0703", "AN0704", "AN0705", "AN0706", "AN0707", "AN0708",
                "AN0709", "AN0710"
            ]
        );
        let mut sorted = strs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, strs, "codes must be in numeric order");
    }

    #[test]
    fn shed_conditions_are_warnings() {
        for c in ALL_CODES {
            let expect = matches!(
                c,
                ServeCode::Overloaded | ServeCode::Draining | ServeCode::CacheCorrupt
            );
            assert_eq!(c.default_severity() == Severity::Warning, expect, "{c:?}");
            assert!(!c.description().is_empty());
        }
    }
}
