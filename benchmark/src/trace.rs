//! In-memory spans recorded by the benchmark around its own calls into
//! each layer (nothing inside the program under test is instrumented).
//!
//! Every task owns a preallocated [`Recorder`], so recording a span is
//! two clock reads and a `Vec` push with no sharing between workers.
//! Role code is generic over [`Probe`]; timed runs instantiate it with
//! [`Off`], which compiles to nothing. Recorders are merged after the
//! trial, self times are computed from the parent links, and the whole
//! list is written out as JSON when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Spans a traced run may hold per workload; recorders share this
/// budget and count what they had to drop beyond it.
pub const SPAN_CAP: usize = 200_000;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique within the run; 0 is "no span".
    pub id: u64,
    /// The span that caused this one, 0 for a root.
    pub parent: u64,
    /// Trial or session the span belongs to.
    pub trial: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What role and harness code sees of the tracer.
pub trait Probe: Send + 'static {
    /// Clock read for a later [`leaf`](Self::leaf); constant 0 when off.
    fn now(&self) -> u64;
    /// Opens a span that later spans of this probe nest under.
    fn enter(&mut self, name: &'static str, trial: u64);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// Records a finished childless span that started at `start_ns`.
    fn leaf(&mut self, name: &'static str, start_ns: u64);
    /// Records a childless span from two clock reads taken elsewhere.
    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64);
    /// A probe for a task spawned from here: its top-level spans nest
    /// under this probe's innermost open span.
    fn fork(&self, cap: usize) -> Self;
    /// Takes back what a forked probe recorded.
    fn join(&mut self, child: Self);
}

/// Awaits one fallible call inside a leaf span of probe `$p`.
macro_rules! spanned {
    ($p:ident, $name:expr, $call:expr) => {{
        let started = $p.now();
        let out = $call.await?;
        $p.leaf($name, started);
        out
    }};
}
pub(crate) use spanned;

/// The probe of timed runs: every method is an empty inline body.
#[derive(Clone, Copy)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _trial: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn leaf(&mut self, _name: &'static str, _start_ns: u64) {}
    #[inline(always)]
    fn record(&mut self, _name: &'static str, _start_ns: u64, _end_ns: u64) {}
    #[inline(always)]
    fn fork(&self, _cap: usize) -> Self {
        Off
    }
    #[inline(always)]
    fn join(&mut self, _child: Self) {}
}

/// One task's span buffer.
pub struct Recorder {
    /// High half of every span id this recorder hands out.
    tag: u64,
    /// Parent of this recorder's top-level spans (a span of another
    /// recorder, typically the trial).
    root_parent: u64,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<usize>,
    cap: usize,
    pub dropped: u64,
}

static NEXT_TAG: AtomicU32 = AtomicU32::new(1);

impl Recorder {
    /// A recorder holding at most `cap` spans whose top-level spans hang
    /// under `root_parent` (0 for none).
    pub fn new(cap: usize, root_parent: u64) -> Self {
        // Relaxed: the tag only has to be unique.
        let tag = u64::from(NEXT_TAG.fetch_add(1, Ordering::Relaxed)) << 32;
        Recorder {
            tag,
            root_parent,
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(8),
            cap,
            dropped: 0,
        }
    }

    /// Id of the innermost open span, or this recorder's own parent if
    /// none is open: what the next span recorded here nests under.
    pub fn current(&self) -> u64 {
        match self.open.last() {
            Some(&i) if i != usize::MAX => self.spans[i].id,
            _ => self.root_parent,
        }
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, trial: u64) -> bool {
        if self.spans.len() == self.cap {
            self.dropped += 1;
            return false;
        }
        let id = self.tag | (self.spans.len() as u64 + 1);
        let parent = self.current();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            trial,
        });
        true
    }

    fn trial(&self) -> u64 {
        match self.open.last() {
            Some(&i) if i != usize::MAX => self.spans[i].trial,
            _ => 0,
        }
    }
}

impl Probe for Recorder {
    #[inline]
    fn now(&self) -> u64 {
        now_ns()
    }

    fn enter(&mut self, name: &'static str, trial: u64) {
        let start = now_ns();
        if self.push(name, start, start, trial) {
            self.open.push(self.spans.len() - 1);
        } else {
            // Keep enter/exit balanced when the span was dropped.
            self.open.push(usize::MAX);
        }
    }

    fn exit(&mut self) {
        let end = now_ns();
        match self.open.pop() {
            Some(usize::MAX) | None => {}
            Some(i) => self.spans[i].end_ns = end,
        }
    }

    #[inline]
    fn leaf(&mut self, name: &'static str, start_ns: u64) {
        self.record(name, start_ns, now_ns());
    }

    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        // Under a dropped `enter` the span has no recorded parent.
        if self.open.last() == Some(&usize::MAX) {
            self.dropped += 1;
            return;
        }
        let trial = self.trial();
        self.push(name, start_ns, end_ns, trial);
    }

    fn fork(&self, cap: usize) -> Self {
        Recorder::new(cap, self.current())
    }

    fn join(&mut self, child: Self) {
        self.dropped += child.dropped;
        let room = self.cap - self.spans.len();
        self.dropped += child.spans.len().saturating_sub(room) as u64;
        self.spans.extend(child.spans.into_iter().take(room));
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// All spans of one traced run.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Trace {
    pub fn absorb(&mut self, recorder: Recorder) {
        self.dropped += recorder.dropped;
        self.spans.extend(recorder.spans);
    }

    /// Time covered by the direct children of each span, by parent id.
    fn child_time(&self) -> HashMap<u64, u64> {
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                *covered.entry(span.parent).or_default() += span.duration();
            }
        }
        covered
    }

    /// Count, total and self time per span name. A span's children never
    /// overlap each other (one task runs them in sequence), except under
    /// a trial root whose children are concurrent tasks — there the
    /// subtraction saturates at zero.
    pub fn totals(&self) -> HashMap<&'static str, Totals> {
        let covered = self.child_time();
        let mut out: HashMap<&'static str, Totals> = HashMap::new();
        for span in &self.spans {
            let entry = out.entry(span.name).or_default();
            let children = covered.get(&span.id).copied().unwrap_or(0);
            entry.count += 1;
            entry.total_ns += span.duration();
            entry.self_ns += span.duration().saturating_sub(children);
        }
        out
    }

    /// Share of the wall time of spans named `task.*` that their child
    /// spans cover, weighted by duration.
    pub fn task_coverage(&self) -> f64 {
        let covered = self.child_time();
        let mut wall = 0u64;
        let mut inside = 0u64;
        for span in self.spans.iter().filter(|s| s.name.starts_with("task.")) {
            wall += span.duration();
            inside += covered
                .get(&span.id)
                .copied()
                .unwrap_or(0)
                .min(span.duration());
        }
        if wall == 0 {
            0.0
        } else {
            inside as f64 / wall as f64
        }
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"trial\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.trial
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, id: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            trial: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = Trace {
            spans: vec![
                span("task.a", 0, 100, 1, 0),
                span("send", 10, 30, 2, 1),
                span("recv", 40, 90, 3, 1),
                // A grandchild must not be subtracted from the task.
                span("inner", 50, 60, 4, 3),
            ],
            dropped: 0,
        };
        let totals = trace.totals();
        assert_eq!(
            totals["task.a"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(totals["recv"].self_ns, 40);
        assert_eq!(totals["send"].self_ns, 20);
        assert!((trace.task_coverage() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_links_across_recorders() {
        let mut main = Recorder::new(8, 0);
        main.enter("trial", 5);
        let mut child = Recorder::new(8, main.current());
        child.enter("task.s", 5);
        let t = child.now();
        child.leaf("send", t);
        child.exit();
        main.exit();
        let mut trace = Trace::default();
        trace.absorb(main);
        trace.absorb(child);
        let trial = &trace.spans[0];
        let task = &trace.spans[1];
        let send = &trace.spans[2];
        assert_eq!(task.parent, trial.id);
        assert_eq!(send.parent, task.id);
        assert_eq!(send.trial, 5);
        assert!(trial.end_ns >= task.end_ns);
        assert!(trace.to_json("w", 1).contains("\"name\":\"send\""));
    }

    #[test]
    fn a_full_recorder_counts_drops_and_stays_balanced() {
        let mut r = Recorder::new(1, 0);
        r.enter("a", 0);
        r.enter("b", 0);
        let t = r.now();
        r.leaf("c", t);
        r.exit();
        r.exit();
        assert_eq!(r.dropped, 2);
        let mut trace = Trace::default();
        trace.absorb(r);
        assert_eq!(trace.spans.len(), 1);
        assert!(trace.spans[0].end_ns >= trace.spans[0].start_ns);
    }
}
