//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer (the program itself is not instrumented). A span carries its
//! name, start and end on one monotonic clock, the span that was open when
//! it started, and the op it belongs to. Every simulated process is an OS
//! thread but at most one runs at a time, so a single shared stack of open
//! spans gives the right parent even when the call arrives on a simulator
//! thread.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Mutex<State>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer mutex poisoned by a panicking span")
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let start_ns = self.now_ns();
            let mut st = self.lock();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let op = st.op;
            st.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            st.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut st = self.lock();
        st.open.pop();
        st.spans[id].end_ns = end_ns;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`, `op`),
    /// in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.lock().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        out
    }
}

/// Totals per span name over the spans of ops in `ops`. A span's self
/// time is its duration minus the time its direct children cover.
pub fn totals(spans: &[Span], ops: impl Fn(u64) -> bool) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(&child_ns) {
        if !ops(s.op) {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(*covered);
    }
    out
}

/// Self time per layer (the name prefix before the first `.`).
pub fn layer_self_ns(totals: &BTreeMap<&'static str, Totals>) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, t) in totals {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer).or_insert(0) += t.self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "core.run",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "apps.cpu_map",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "apps.reduce",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "core.run",
                start_ns: 200,
                end_ns: 300,
                parent: None,
                op: 2,
            },
        ];
        let t = totals(&spans, |op| op == 1);
        assert_eq!(
            t["core.run"],
            Totals {
                calls: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(t["apps.cpu_map"].self_ns, 30);
        let layers = layer_self_ns(&t);
        assert_eq!(layers["core"], 60);
        assert_eq!(layers["apps"], 40);
    }

    #[test]
    fn nested_spans_get_their_parent() {
        let tr = Tracer::new(true);
        tr.set_op(7);
        tr.span("core.run", || tr.span("apps.cpu_map", || ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("core.run", || 3), 3);
        assert!(tr.spans().is_empty());
    }
}
