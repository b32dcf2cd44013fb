//! Spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end and the span open around it (its
//! parent). Spans live in a per-thread tracer in memory; a traced
//! section ends with [`take`], which hands back per-name aggregates —
//! count, total time and self time (the span's time minus its
//! children's) — plus the raw spans, capped at [`MAX_SPANS`] so long
//! replays keep complete aggregates without unbounded memory.
//!
//! The wrappers below implement the program's own layer traits, so the
//! unmodified runner drives them exactly like the types they wrap: same
//! calls, same RNG draws, same results.

use ctjam_core::adversary::{Adversary, AdversaryProbe, JamAction, SlotSense};
use ctjam_core::defender::{AgentProbe, Defender};
use ctjam_core::env::{Decision, EnvParams, Environment, SlotResult};
use ctjam_fault::FaultPoint;
use rand::RngCore;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept per traced section; aggregates cover every span.
pub const MAX_SPANS: usize = 50_000;

/// One finished span, in nanoseconds from the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the same section, if it was kept.
    pub parent: Option<usize>,
}

/// Per-name totals over every span of a section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

impl Agg {
    /// Mean span duration (NaN when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count as f64
    }

    /// Mean self time (NaN when no span was recorded).
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count as f64
    }
}

/// What one traced section recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Aggregates by span name.
    pub agg: BTreeMap<&'static str, Agg>,
    /// The first [`MAX_SPANS`] spans, in start order.
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    /// Aggregate of `name` (all-zero when absent).
    pub fn get(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Adds `other`'s aggregates to this trace's (its raw spans stay
    /// with `other`).
    pub fn absorb(&mut self, other: &Trace) {
        for (name, agg) in &other.agg {
            let e = self.agg.entry(name).or_default();
            e.count += agg.count;
            e.total_ns += agg.total_ns;
            e.self_ns += agg.self_ns;
        }
    }

    /// Appends the kept spans as JSON lines tagged with `section`.
    pub fn write_jsonl<W: Write>(&self, section: &str, out: &mut W) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"section\":\"{section}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

struct Open {
    name: &'static str,
    kept: Option<usize>,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<SpanRecord>,
    /// Aggregates by name; a handful of names, so a scan that first
    /// compares string addresses beats a map on the per-span path.
    agg: Vec<(&'static str, Agg)>,
}

impl Tracer {
    fn agg(&mut self, name: &'static str) -> &mut Agg {
        let i = match self
            .agg
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        {
            Some(i) => i,
            None => {
                self.agg.push((name, Agg::default()));
                self.agg.len() - 1
            }
        };
        &mut self.agg[i].1
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        stack: Vec::new(),
        spans: Vec::new(),
        agg: Vec::new(),
    });
}

/// An open span; ends when dropped or [`Span::finish`]ed. Spans on one
/// thread must end in the reverse order they began.
#[must_use = "a span ends when it is dropped"]
#[derive(Debug)]
pub struct Span {
    depth: usize,
    done: bool,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Span {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let start = Instant::now();
        let parent = t.stack.last().and_then(|o| o.kept);
        let kept = (t.spans.len() < MAX_SPANS).then(|| {
            let start_ns = start.duration_since(t.epoch).as_nanos() as u64;
            t.spans.push(SpanRecord {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            t.spans.len() - 1
        });
        t.stack.push(Open {
            name,
            kept,
            start,
            child_ns: 0,
        });
        Span {
            depth: t.stack.len(),
            done: false,
        }
    })
}

impl Span {
    /// Ends the span and returns its duration in nanoseconds.
    pub fn finish(mut self) -> u64 {
        self.end()
    }

    fn end(&mut self) -> u64 {
        self.done = true;
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            assert_eq!(t.stack.len(), self.depth, "spans must nest");
            let open = t.stack.pop().expect("an open span");
            let end = Instant::now();
            let ns = end.duration_since(open.start).as_nanos() as u64;
            if let Some(i) = open.kept {
                t.spans[i].end_ns = end.duration_since(t.epoch).as_nanos() as u64;
            }
            if let Some(parent) = t.stack.last_mut() {
                parent.child_ns += ns;
            }
            let agg = t.agg(open.name);
            agg.count += 1;
            agg.total_ns += ns;
            agg.self_ns += ns.saturating_sub(open.child_ns);
            ns
        })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            self.end();
        }
    }
}

/// Adds one sample to an aggregate without a span (a subset of another
/// span's samples, such as feedback calls that ran a gradient step).
pub fn add(name: &'static str, ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let agg = t.agg(name);
        agg.count += 1;
        agg.total_ns += ns;
        agg.self_ns += ns;
    });
}

/// Ends the current section: returns what it recorded and resets.
///
/// # Panics
///
/// Panics if a span is still open.
pub fn take() -> Trace {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "section ended inside an open span");
        t.epoch = Instant::now();
        Trace {
            agg: std::mem::take(&mut t.agg).into_iter().collect(),
            spans: std::mem::take(&mut t.spans),
        }
    })
}

/// An environment whose every step is an `env.step` span.
#[derive(Debug, Clone)]
pub struct Traced<T>(pub T);

impl<E: Environment> Environment for Traced<E> {
    fn params(&self) -> &EnvParams {
        self.0.params()
    }

    fn current_channel(&self) -> usize {
        self.0.current_channel()
    }

    fn step(&mut self, decision: Decision, rng: &mut dyn RngCore) -> SlotResult {
        let _s = span("env.step");
        self.0.step(decision, rng)
    }

    fn step_with_decoy(
        &mut self,
        decision: Decision,
        decoy: Option<usize>,
        rng: &mut dyn RngCore,
    ) -> SlotResult {
        let _s = span("env.step");
        self.0.step_with_decoy(decision, decoy, rng)
    }
}

/// A defender whose `decide` and `feedback` calls are spans. Feedback
/// calls that ran a gradient step are also added to
/// `defender.feedback_train`.
#[derive(Debug)]
pub struct TracedDefender<D>(pub D);

impl<D: Defender> TracedDefender<D> {
    fn timed_feedback(&mut self, f: impl FnOnce(&mut D)) {
        let steps_before = self.0.probe().train_steps;
        let s = span("defender.feedback");
        f(&mut self.0);
        let ns = s.finish();
        if self.0.probe().train_steps != steps_before {
            add("defender.feedback_train", ns);
        }
    }
}

impl<D: Defender> Defender for TracedDefender<D> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        let _s = span("defender.decide");
        self.0.decide(rng)
    }

    fn decoy(&mut self, rng: &mut dyn RngCore) -> Option<usize> {
        self.0.decoy(rng)
    }

    fn feedback(&mut self, result: &SlotResult, rng: &mut dyn RngCore) {
        self.timed_feedback(|d| d.feedback(result, rng));
    }

    fn feedback_with_fault(
        &mut self,
        result: &SlotResult,
        rng: &mut dyn RngCore,
        fault: &mut dyn FaultPoint,
    ) {
        self.timed_feedback(|d| d.feedback_with_fault(result, rng, fault));
    }

    fn probe(&self) -> AgentProbe {
        self.0.probe()
    }
}

/// An adversary whose `jam` calls are spans named `span`.
#[derive(Debug)]
pub struct TracedAdversary {
    /// The wrapped adversary.
    pub inner: Box<dyn Adversary>,
    /// Span name, one per adversary kind.
    pub span: &'static str,
}

impl Adversary for TracedAdversary {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn RngCore) -> JamAction {
        let _s = span(self.span);
        self.inner.jam(sense, rng)
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(TracedAdversary {
            inner: self.inner.clone_box(),
            span: self.span,
        })
    }

    fn probe(&self) -> AdversaryProbe {
        self.inner.probe()
    }

    fn set_learning(&mut self, on: bool) {
        self.inner.set_learning(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        take();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let inner = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
            inner.finish();
        }
        add("extra", 5);
        let t = take();
        let (outer, inner) = (t.get("outer"), t.get("inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(t.get("extra").total_ns, 5);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        let mut jsonl = Vec::new();
        t.write_jsonl("unit", &mut jsonl).expect("in-memory write");
        assert_eq!(String::from_utf8(jsonl).expect("utf8").lines().count(), 2);
        assert!(take().agg.is_empty(), "take resets the section");
    }
}
