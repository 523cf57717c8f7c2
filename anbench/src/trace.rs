//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `layer.call`, the operation (request) it belongs to, its
//! parent, and start/end in nanoseconds since the recorder was made.
//! Spans stay in memory until the run ends. A disabled recorder reads no
//! clock and stores nothing, so the untraced run pays one branch per
//! call site.

use access_normalization::serve::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (one compile, one request) this span belongs to.
    pub op: u64,
    /// The round that operation ran in, counted from zero.
    pub round: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    op: u64,
    rounds: usize,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            op: 0,
            rounds: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: spans entered from now on carry its
    /// identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Starts the next round.
    pub fn next_round(&mut self) {
        self.rounds += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            round: self.rounds.saturating_sub(1),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Appends another thread's spans (a second client connection),
    /// keeping their parent links and numbering their operations and
    /// rounds after this recorder's.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let (op_base, round_base) = (self.op, self.rounds);
        self.op += other.op;
        self.rounds += other.rounds;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op += op_base;
            s.round += round_base;
            s
        }));
    }

    /// Self time per span name in nanoseconds: a span's duration minus
    /// the part its direct children cover, multiplied by the weight
    /// `weigh` gives its round (`None` leaves the round out).
    pub fn self_ns_by_name(
        &self,
        weigh: impl Fn(usize) -> Option<f64>,
    ) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            if let Some(weight) = weigh(s.round) {
                let own = (s.end_ns - s.start_ns).saturating_sub(child);
                *by_name.entry(s.name).or_insert(0.0) += own as f64 * weight;
            }
        }
        by_name
    }

    /// The spans as JSON rows, at most `cap` of them (the totals are
    /// computed from all spans; the file keeps a readable prefix).
    pub fn spans_json(&self, cap: usize) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .take(cap)
                .map(|(id, s)| {
                    crate::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Num(s.op as f64)),
                        ("round", Json::Num(s.round as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// The layer a span belongs to: the part of its name before the dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new(true);
        r.spans = vec![
            span("op.compile", None, 0, 100),
            span("lang.lex", Some(0), 10, 30),
            span("core.normalize", Some(0), 30, 90),
            span("linalg.hnf", Some(2), 40, 50),
        ];
        let t = r.self_ns_by_name(|_| Some(1.0));
        assert_eq!(t["op.compile"], 20.0);
        assert_eq!(t["lang.lex"], 20.0);
        assert_eq!(t["core.normalize"], 50.0);
        assert_eq!(t["linalg.hnf"], 10.0);
        assert_eq!(t.values().sum::<f64>(), 100.0);
        assert!(r.self_ns_by_name(|_| None).is_empty());
        assert_eq!(r.self_ns_by_name(|_| Some(0.5))["core.normalize"], 25.0);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = Recorder::new(false);
        let out = r.within("lang.lex", || 7);
        assert_eq!(out, 7);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn nesting_and_absorb_keep_parent_links() {
        let mut a = Recorder::new(true);
        a.next_round();
        a.next_op();
        let outer = a.enter("serve.request");
        a.within("serve.write", || ());
        a.exit(outer);
        let mut b = Recorder::new(true);
        b.next_round();
        b.next_op();
        let outer = b.enter("serve.request");
        b.within("serve.wait", || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!((a.spans[0].op, a.spans[2].op), (1, 2));
        assert_eq!((a.spans[1].round, a.spans[3].round), (0, 1));
        assert_eq!(layer_of(a.spans[3].name), "serve");
    }
}
