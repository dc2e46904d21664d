//! Lightweight stack-context recording for the virtual-time profiler.
//!
//! Every simulated execution lane (master scheduler, per-node worker
//! scheduler, CPU/GPU device daemons, netsim ranks, the resilience
//! driver) can record *frames* — named intervals of virtual time that
//! nest like call stacks. The profiler (`obs::profile`) later samples
//! these frames at a fixed virtual period and folds them into
//! collapsed-stack profiles.
//!
//! The design mirrors the observability sinks: a [`StackCtx`] is a cheap
//! `Clone` around an `Option<Arc<...>>`. The default value is disabled —
//! every call is a branch on an `Option`, no locks, no allocation — and
//! recording never advances virtual time, so attaching a stack context
//! leaves `total_seconds` bit-identical (CI enforces this).
//!
//! Two recording styles are supported:
//!
//! - [`StackCtx::frame`] — retroactive: record a closed `[t0, t1)` frame
//!   after the fact. This is what the device daemons use, since they
//!   already know both endpoints when they emit their obs spans.
//! - [`StackCtx::enter`] / [`StackCtx::exit`] — live: push a frame open
//!   on a lane, pop it later. Exits match the innermost open frame
//!   (LIFO per lane).
//!
//! Frames are plain data; nesting is *by containment*: at any sampled
//! instant `t`, a lane's stack is the set of frames with
//! `t0 <= t < t1`, outermost first (earlier start, later end).

use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One recorded frame: a named interval of virtual time on a lane.
#[derive(Clone, Debug, PartialEq)]
pub struct StackFrame {
    /// Execution lane (same naming as the obs event bus:
    /// `node0-gpu0-compute`, `node1-sched`, `net-rank0`, `master`, ...).
    pub lane: Arc<str>,
    /// Frame name (`kernel`, `cpu-task`, `map`, `recovery`, ...).
    pub frame: Arc<str>,
    /// Start instant, virtual seconds (inclusive).
    pub t0: f64,
    /// End instant, virtual seconds (exclusive).
    pub t1: f64,
}

/// Per-lane LIFO of open frames for the live enter/exit API.
type OpenFrames = BTreeMap<Arc<str>, Vec<(Arc<str>, f64)>>;

struct StackInner {
    frames: Mutex<Vec<StackFrame>>,
    open: Mutex<OpenFrames>,
    interned: Mutex<BTreeMap<String, Arc<str>>>,
}

/// A shared, cheaply clonable stack-frame sink. The default value is
/// *disabled*: every call is a no-op branch.
#[derive(Clone, Default)]
pub struct StackCtx {
    inner: Option<Arc<StackInner>>,
}

impl StackCtx {
    /// A live context that records frames.
    pub fn recording() -> Self {
        Self {
            inner: Some(Arc::new(StackInner {
                frames: Mutex::new(Vec::new()),
                open: Mutex::new(BTreeMap::new()),
                interned: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A disabled context (same as `StackCtx::default()`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether recording calls will actually record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Interns a lane/frame name: one allocation per distinct name.
    /// Returns an owned `Arc<str>` even when disabled so setup code can
    /// intern unconditionally.
    pub fn intern(&self, name: &str) -> Arc<str> {
        match &self.inner {
            Some(inner) => {
                let mut table = inner.interned.lock();
                if let Some(a) = table.get(name) {
                    return a.clone();
                }
                let a: Arc<str> = Arc::from(name);
                table.insert(name.to_string(), a.clone());
                a
            }
            None => Arc::from(name),
        }
    }

    /// Records a closed frame `[t0, t1)` on `lane`. Zero- and
    /// negative-length frames are dropped — they can never be sampled.
    pub fn frame(&self, lane: &str, frame: &str, t0: SimTime, t1: SimTime) {
        if self.inner.is_some() {
            let lane = self.intern(lane);
            let frame = self.intern(frame);
            self.frame_interned(&lane, &frame, t0, t1);
        }
    }

    /// Hot-path variant of [`Self::frame`] taking pre-interned names.
    pub fn frame_interned(&self, lane: &Arc<str>, frame: &Arc<str>, t0: SimTime, t1: SimTime) {
        if let Some(inner) = &self.inner {
            let (t0, t1) = (t0.as_secs_f64(), t1.as_secs_f64());
            if t1 > t0 {
                inner.frames.lock().push(StackFrame {
                    lane: lane.clone(),
                    frame: frame.clone(),
                    t0,
                    t1,
                });
            }
        }
    }

    /// Opens a frame on `lane` at instant `t` (live API).
    pub fn enter(&self, lane: &str, frame: &str, t: SimTime) {
        if let Some(inner) = &self.inner {
            let lane = self.intern(lane);
            let frame = self.intern(frame);
            inner
                .open
                .lock()
                .entry(lane)
                .or_default()
                .push((frame, t.as_secs_f64()));
        }
    }

    /// Closes the innermost open frame on `lane` at instant `t`,
    /// recording it. A stray exit with no matching enter is ignored.
    pub fn exit(&self, lane: &str, t: SimTime) {
        if let Some(inner) = &self.inner {
            let lane = self.intern(lane);
            let popped = inner.open.lock().get_mut(&lane).and_then(Vec::pop);
            if let Some((frame, t0)) = popped {
                let t1 = t.as_secs_f64();
                if t1 > t0 {
                    inner.frames.lock().push(StackFrame {
                        lane,
                        frame,
                        t0,
                        t1,
                    });
                }
            }
        }
    }

    /// Number of closed frames recorded so far.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.frames.lock().len())
    }

    /// True when no closed frame has been recorded (or when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every closed frame in canonical order: by start
    /// ascending, then end *descending* (outer frames before the inner
    /// frames they contain), then lane, then frame name. The ordering is
    /// a pure function of the frame set, so seeded runs reproduce
    /// byte-identical profiles regardless of append interleaving.
    pub fn frames(&self) -> Vec<StackFrame> {
        let mut frames = match &self.inner {
            Some(inner) => inner.frames.lock().clone(),
            None => Vec::new(),
        };
        frames.sort_by(|a, b| {
            a.t0.total_cmp(&b.t0)
                .then(b.t1.total_cmp(&a.t1))
                .then_with(|| a.lane.cmp(&b.lane))
                .then_with(|| a.frame.cmp(&b.frame))
        });
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> SimTime {
        SimTime::from_secs_f64(v)
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let ctx = StackCtx::disabled();
        assert!(!ctx.is_enabled());
        ctx.frame("lane", "f", s(0.0), s(1.0));
        ctx.enter("lane", "g", s(0.0));
        ctx.exit("lane", s(1.0));
        assert!(ctx.is_empty());
        assert!(ctx.frames().is_empty());
    }

    #[test]
    fn retroactive_and_live_frames_agree() {
        let ctx = StackCtx::recording();
        ctx.frame("a", "outer", s(0.0), s(2.0));
        ctx.enter("a", "inner", s(0.5));
        ctx.exit("a", s(1.5));
        let frames = ctx.frames();
        assert_eq!(frames.len(), 2);
        assert_eq!(&*frames[0].frame, "outer");
        assert_eq!(&*frames[1].frame, "inner");
    }

    #[test]
    fn zero_length_frames_are_dropped() {
        let ctx = StackCtx::recording();
        ctx.frame("a", "empty", s(1.0), s(1.0));
        ctx.enter("a", "live-empty", s(2.0));
        ctx.exit("a", s(2.0));
        assert!(ctx.is_empty());
    }

    #[test]
    fn canonical_order_is_containment_order() {
        let ctx = StackCtx::recording();
        // Appended inner-first: canonical order must still put the
        // containing frame first, and sort equal-start frames by lane.
        ctx.frame("b", "inner", s(1.0), s(2.0));
        ctx.frame("b", "outer", s(0.0), s(3.0));
        ctx.frame("a", "peer", s(0.0), s(3.0));
        let frames = ctx.frames();
        let names: Vec<&str> = frames.iter().map(|f| &*f.frame).collect();
        assert_eq!(names, ["peer", "outer", "inner"]);
    }

    #[test]
    fn exits_match_lifo_per_lane() {
        let ctx = StackCtx::recording();
        ctx.enter("a", "outer", s(0.0));
        ctx.enter("a", "inner", s(1.0));
        ctx.enter("b", "other", s(0.5));
        ctx.exit("a", s(2.0)); // closes inner
        ctx.exit("a", s(3.0)); // closes outer
        ctx.exit("b", s(1.0)); // closes other
        ctx.exit("b", s(9.0)); // stray: ignored
        let frames = ctx.frames();
        assert_eq!(frames.len(), 3);
        assert_eq!(&*frames[0].frame, "outer");
        assert_eq!((frames[0].t0, frames[0].t1), (0.0, 3.0));
        assert_eq!(&*frames[2].frame, "inner");
        assert_eq!((frames[2].t0, frames[2].t1), (1.0, 2.0));
    }

    #[test]
    fn clones_share_the_sink() {
        let ctx = StackCtx::recording();
        let clone = ctx.clone();
        clone.frame("lane", "f", s(0.0), s(1.0));
        assert_eq!(ctx.len(), 1);
    }
}
