//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end, the
//! span that caused it, and the request it belongs to. Spans are kept
//! in memory and folded into per-layer self times once the run ends.
//! A disabled recorder times nothing, so the same code runs untraced
//! and the difference between the two runs is the tracing overhead.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u64,
    /// The span that caused this one; `None` for a root span.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `store.trace_open`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes [`Recorder::time`] a plain call.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id to pass as the parent of the spans it causes (`None` when the
    /// recorder is disabled).
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        // Ids only need to be unique; they publish nothing else.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(Some(id));
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span recorder poisoned by a panicking worker").push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned by a panicking worker").clone()
    }
}

/// Per-name totals folded from a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fold {
    /// Name → (count, total duration ns, total self time ns).
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Summed duration of root spans (no parent): the busy time the
    /// layer spans below them account for.
    pub root_ns: u64,
}

impl Fold {
    /// Folds `spans`: a span's self time is its duration minus the part
    /// its direct children cover.
    pub fn of(spans: &[Span]) -> Fold {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut fold = Fold::default();
        for s in spans {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let own = self_time((s.start_ns, s.end_ns), kids);
            let e = fold.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += own;
            if s.parent.is_none() {
                fold.root_ns += s.ns();
            }
        }
        fold
    }

    /// (count, total ns, self ns) of `name`; zeros when absent.
    pub fn get(&self, name: &str) -> (u64, u64, u64) {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, request: 0, start_ns, end_ns }
    }

    #[test]
    fn fold_splits_parent_into_children_and_self() {
        // A 100 ns cell: open 10..30, replay 30..80, write 85..95.
        let spans = vec![
            span(1, None, "sim.cell", 0, 100),
            span(2, Some(1), "store.trace_open", 10, 30),
            span(3, Some(1), "frontend.replay", 30, 80),
            span(4, Some(1), "store.result_write", 85, 95),
        ];
        let f = Fold::of(&spans);
        assert_eq!(f.get("sim.cell"), (1, 100, 20));
        assert_eq!(f.get("store.trace_open"), (1, 20, 20));
        assert_eq!(f.get("frontend.replay"), (1, 50, 50));
        assert_eq!(f.get("store.result_write"), (1, 10, 10));
        assert_eq!(f.root_ns, 100);
        let self_sum: u64 = f.by_name.values().map(|v| v.2).sum();
        assert_eq!(self_sum, f.root_ns);
        assert_eq!(f.get("absent"), (0, 0, 0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        let v = r.time("a", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
        let r = Recorder::new(true);
        r.time("outer", None, 3, |id| r.time("inner", id, 3, |_| ()));
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
