//! Host-time spans recorded by the benchmark around its calls into the
//! simulator's crates. Spans are kept in memory and summarised when the
//! benchmark ends; nothing inside the simulator is instrumented.

use std::time::Instant;

struct Rec {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// A per-name aggregate: how often the span ran, its total host seconds,
/// and its self time (total minus the time its child spans cover).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    /// Span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus child spans, seconds.
    pub self_s: f64,
}

/// An in-memory span recorder. Spans nest: a span opened while another is
/// open is its child.
#[derive(Default)]
pub struct Spans {
    recs: Vec<Rec>,
    open: Vec<usize>,
}

impl Spans {
    /// Opens a span; returns the id to [`close`](Spans::close) it with.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.recs.len();
        self.recs.push(Rec {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and returns its duration in seconds. Spans opened
    /// inside it and still open (a panic unwound past their close) are
    /// abandoned and left out of [`totals`](Spans::totals).
    pub fn close(&mut self, id: usize) -> f64 {
        let end = Instant::now();
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
        let rec = &mut self.recs[id];
        rec.end = Some(end);
        (end - rec.start).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; returns its result and seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// Closed spans aggregated by name, in first-opened order.
    #[must_use]
    pub fn totals(&self) -> Vec<SpanTotal> {
        let dur = |r: &Rec| r.end.map_or(0.0, |e| (e - r.start).as_secs_f64());
        let mut child_s = vec![0.0; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_s[p] += dur(r);
            }
        }
        let mut out: Vec<SpanTotal> = Vec::new();
        for (i, r) in self
            .recs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.end.is_some())
        {
            let idx = match out.iter().position(|t| t.name == r.name) {
                Some(idx) => idx,
                None => {
                    out.push(SpanTotal {
                        name: r.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.len() - 1
                }
            };
            let t = &mut out[idx];
            t.count += 1;
            t.total_s += dur(r);
            t.self_s += dur(r) - child_s[i];
        }
        out
    }
}
