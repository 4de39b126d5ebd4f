//! Span and counter recorder for the calls the benchmark makes into
//! each layer.
//!
//! Spans are recorded from outside the program, around each public
//! entry point the flows call: name, parent, start, end and the
//! iteration (or probe) they belong to. They stay in memory until the
//! run ends. A disabled recorder runs the closure and records nothing,
//! so untraced iterations pay only a branch per call.
//!
//! The recorder also carries the clock that end-to-end times are read
//! from ([`RefClock`]), since every timed function already has it.
//! Spans stay in wall time.

use crate::clock::RefClock;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// Enclosing span, `None` at the top level.
    pub parent: Option<usize>,
    /// Layer call, e.g. `circuit.transient.rc`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Iteration (or probe) the span belongs to.
    pub iter: usize,
}

impl Span {
    /// Duration, seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// One recorded counter increment.
#[derive(Clone, Debug, PartialEq)]
pub struct Count {
    /// Counter name, e.g. `circuit.transient.steps`.
    pub name: &'static str,
    /// Amount added.
    pub value: f64,
    /// Iteration (or probe) the count belongs to.
    pub iter: usize,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    iter: usize,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<Count>,
    clock: RefClock,
}

impl Tracer {
    /// A recorder, enabled or not.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            iter: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
            clock: RefClock::default(),
        }
    }

    /// The clock's reading, reference seconds ([`RefClock::now`]).
    pub fn now(&mut self) -> f64 {
        self.clock.now()
    }

    /// The clock.
    #[must_use]
    pub fn clock(&self) -> &RefClock {
        &self.clock
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the following calls.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the following spans and counts with iteration `iter`.
    pub fn set_iter(&mut self, iter: usize) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Opens a span by hand (for a span around code that needs more
    /// than the recorder); close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            iter: self.iter,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Self::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        self.stack.retain(|&s| s != id);
        let end_ns = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end_ns;
        }
    }

    /// Adds `value` to counter `name` for the current iteration.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push(Count {
                name,
                value,
                iter: self.iter,
            });
        }
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every recorded counter increment.
    #[must_use]
    pub fn counts(&self) -> &[Count] {
        &self.counts
    }

    /// Self time of every span, seconds, indexed like [`Self::spans`]:
    /// the span's duration minus the durations of its direct children.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        self_times(&self.spans)
    }

    /// Per-iteration totals of span durations by name, seconds, over
    /// the iterations `iters` selects.
    #[must_use]
    pub fn totals_by_iter(
        &self,
        iters: impl Fn(usize) -> bool,
    ) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| iters(s.iter)) {
            *out.entry(s.name).or_default().entry(s.iter).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Per-iteration counter totals by name, over the iterations
    /// `iters` selects.
    #[must_use]
    pub fn counts_by_iter(
        &self,
        iters: impl Fn(usize) -> bool,
    ) -> BTreeMap<&'static str, BTreeMap<usize, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
        for c in self.counts.iter().filter(|c| iters(c.iter)) {
            *out.entry(c.name).or_default().entry(c.iter).or_insert(0.0) += c.value;
        }
        out
    }

    /// The spans as JSON lines (`id`, `parent`, `name`, `start_ns`,
    /// `end_ns`, `self_ns`, `iter`).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::new();
        for (s, self_s) in self.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"iter\":{}}}\n",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                (self_s * 1e9).round(),
                s.iter
            ));
        }
        out
    }
}

/// Self time of each span, seconds: its duration minus the summed
/// durations of its direct children. Spans are recorded on one thread,
/// so children never overlap one another.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(slot) = out.get_mut(p) {
                *slot -= s.secs();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false);
        let v = t.span("a", |t| t.span("b", |_| 7));
        t.count("c", 1.0);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.counts().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| ()));
        });
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
    }
}
