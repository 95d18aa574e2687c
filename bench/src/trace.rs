//! Harness-side span recorder for the traced run.
//!
//! Spans wrap the adapter calls in `layers.rs` and the ops built from
//! them; nothing inside the crates is instrumented yet (ROADMAP item 4).
//! Spans stay in memory and are written once, at exit, as Chrome-trace
//! JSON (`chrome://tracing`, Perfetto). With the tracer off a span costs
//! one branch, which is what the end-to-end run measures.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u64,
    pub thread: u64,
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

pub struct Tracer {
    /// Relaxed is enough: the flag publishes no other data, and a span
    /// that straddles a toggle is either wholly kept or wholly dropped.
    on: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// The process-wide tracer the adapter's spans go to; off until
/// [`Tracer::set_on`].
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(false))
}

/// Opens a span on the [`global`] tracer.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_us: f64,
    /// Total minus the time covered by child spans.
    pub self_us: f64,
}

/// A small per-thread number for the trace's `tid`, handed out on first use.
fn thread_number() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    thread_local! {
        static NUMBER: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on: AtomicBool::new(on), t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Marks the op subsequent spans on this thread belong to.
    pub fn set_op(&self, op: u64) {
        if self.is_on() {
            OP.with(|c| c.set(op));
        }
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard { tracer: self, id: None };
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        let span = Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent,
            op: OP.with(Cell::get),
            thread: thread_number(),
        };
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics with the lock");
            spans.push(span);
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard { tracer: self, id: Some(id) }
    }

    /// Records a span that ended now and lasted `duration`, for work the
    /// program timed itself (no guard was open around it).
    pub fn record(&self, name: &'static str, duration: std::time::Duration) {
        if !self.is_on() {
            return;
        }
        let end_us = self.now_us();
        let span = Span {
            name,
            start_us: end_us - duration.as_secs_f64() * 1e6,
            end_us,
            parent: None,
            op: OP.with(Cell::get),
            thread: thread_number(),
        };
        self.spans.lock().expect("no span holder panics with the lock").push(span);
    }

    /// All spans recorded so far; open spans are closed at "now".
    pub fn spans(&self) -> Vec<Span> {
        let now = self.now_us();
        let mut spans = self.spans.lock().expect("no span holder panics with the lock").clone();
        for s in &mut spans {
            if s.end_us.is_nan() {
                s.end_us = now;
            }
        }
        spans
    }
}

/// Chrome-trace JSON ("X" complete events, microsecond timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.start_us,
            (s.end_us - s.start_us).max(0.0),
            s.thread,
            s.op
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Aggregates spans by name; a span's self time is its duration minus
/// the durations of the spans that name it as parent.
pub fn totals_of(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.end_us - s.start_us;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_us - s.start_us;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_us += dur;
        t.self_us += (dur - child_us[i]).max(0.0);
    }
    out
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = self.tracer.now_us();
        // Drop must not panic: a poisoned lock only loses this span's end.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[id].end_us = end;
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let _a = t.span("a");
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_parents_and_self_time() {
        let t = Tracer::new(true);
        t.set_op(7);
        {
            let _op = t.span("op");
            let _inner = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let totals = totals_of(&spans);
        assert!(totals["op"].self_us < totals["op"].total_us);
        assert_eq!(totals["inner"].self_us, totals["inner"].total_us);
    }

    #[test]
    fn chrome_json_parses() {
        let t = Tracer::new(true);
        {
            let _a = t.span("a");
        }
        let v = serde_json::Value::parse_json(&chrome_json(&t.spans())).expect("valid JSON");
        let events = v.get_field("traceEvents").expect("traceEvents");
        assert!(matches!(events, serde_json::Value::Array(a) if a.len() == 1));
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let span = |name, start_us, end_us, parent| Span {
            name,
            start_us,
            end_us,
            parent,
            op: 0,
            thread: 1,
        };
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("b", 50.0, 70.0, Some(0)),
            span("a", 15.0, 20.0, Some(1)),
        ];
        let t = totals_of(&spans);
        assert_eq!(t["op"], SpanTotals { count: 1, total_us: 100.0, self_us: 50.0 });
        assert_eq!(t["a"], SpanTotals { count: 2, total_us: 35.0, self_us: 30.0 });
        assert_eq!(t["b"], SpanTotals { count: 1, total_us: 20.0, self_us: 20.0 });
    }
}
