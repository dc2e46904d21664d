//! Engine internals: the event queue, the process table, and the shared
//! kernel state that processes and synchronization primitives manipulate.
//!
//! Events live in one [`CalendarQueue`] and pop in ascending `(time, seq)`
//! order, where `seq` is the kernel's scheduling counter; that order is the
//! engine's determinism contract. The kernel also owns two
//! allocation-avoidance structures for million-event runs: an action arena
//! that recycles event slots instead of allocating a fresh queue node per
//! event, and a label interner so block reasons are integer handles rather
//! than per-event `String`s.

use crate::gate::Gate;
use crate::queue::CalendarQueue;
use crate::time::SimTime;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Process identifier: an index into the process table.
pub(crate) type Pid = usize;

/// Interned-string handle (index into the kernel's label table).
pub(crate) type Label = u32;

/// What an event does when it fires. Kept `Copy`-small so queue entries are
/// cheap to move during bucket sweeps and resizes; the boxed action
/// closures live in the arena, referenced by slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventPayload {
    /// Transfer control to a blocked process.
    Wake(Pid),
    /// Run the kernel action stored in the arena slot.
    Action(u32),
}

/// Boxed kernel action (delayed channel deliveries, timeouts, timers).
pub(crate) type Action = Box<dyn FnOnce(&mut KState) + Send>;

/// Slab of pending action closures with a free list, so steady-state
/// scheduling reuses slots instead of growing.
#[derive(Default)]
pub(crate) struct ActionArena {
    slots: Vec<Option<Action>>,
    free: Vec<u32>,
}

impl ActionArena {
    fn insert(&mut self, f: Action) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(f);
                i
            }
            None => {
                self.slots.push(Some(f));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, slot: u32) -> Action {
        let v = self.slots[slot as usize]
            .take()
            .expect("action slot fired twice");
        self.free.push(slot);
        v
    }
}

/// Deduplicating string table. Labels identify channels, resources, and
/// processes in block reasons without per-event allocation.
#[derive(Default)]
pub(crate) struct Interner {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, Label>,
}

impl Interner {
    pub fn intern(&mut self, s: &str) -> Label {
        if let Some(&l) = self.index.get(s) {
            return l;
        }
        let arc: Arc<str> = s.into();
        let l = self.strings.len() as Label;
        self.strings.push(arc.clone());
        self.index.insert(arc, l);
        l
    }

    pub fn resolve(&self, l: Label) -> &str {
        &self.strings[l as usize]
    }
}

/// Why a process is parked, stored without allocating. Rendered to the
/// exact human-readable strings deadlock reports always used.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockReason {
    /// Spawned but not yet given the token.
    NotStarted,
    /// In `hold` until the given instant.
    HoldUntil(SimTime),
    /// In `recv` on the named channel.
    Recv(Label),
    /// In `recv_deadline` on the named channel.
    RecvDeadline(Label, SimTime),
    /// In `acquire(amount)` on the named resource.
    Acquire(u64, Label),
    /// In `join` on the named process.
    Join(Label),
}

impl BlockReason {
    fn render(&self, labels: &Interner) -> String {
        match *self {
            BlockReason::NotStarted => "not started".to_string(),
            BlockReason::HoldUntil(at) => format!("hold until {at}"),
            BlockReason::Recv(l) => format!("recv on '{}'", labels.resolve(l)),
            BlockReason::RecvDeadline(l, d) => {
                format!("recv on '{}' (deadline {d})", labels.resolve(l))
            }
            BlockReason::Acquire(amount, l) => {
                format!("acquire {amount} of '{}'", labels.resolve(l))
            }
            BlockReason::Join(l) => format!("join '{}'", labels.resolve(l)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Parked on its gate, waiting for a wake event or a grant.
    Blocked,
    /// Currently holding the execution token.
    Running,
    /// Body returned (or unwound); will never run again.
    Finished,
}

pub(crate) struct ProcEntry {
    pub name: String,
    /// Interned copy of `name`, for join reasons.
    pub label: Label,
    pub gate: Arc<Gate>,
    pub state: ProcState,
    /// Reason recorded before blocking, for deadlock reports.
    pub block_reason: BlockReason,
    /// Pids waiting in `join` for this process to finish.
    pub join_waiters: Vec<Pid>,
}

/// Mutable kernel state, guarded by the kernel mutex. Because only one
/// thread (the engine or a single process) ever runs at a time, the lock is
/// uncontended; it exists to satisfy the type system and to make the
/// handoff points explicit.
pub(crate) struct KState {
    pub now: SimTime,
    pub seq: u64,
    pub queue: CalendarQueue<EventPayload>,
    pub actions: ActionArena,
    pub labels: Interner,
    pub procs: Vec<ProcEntry>,
    pub live: usize,
    pub events_processed: u64,
    pub event_limit: Option<u64>,
    pub shutdown: bool,
    pub panic_info: Option<(String, String)>,
}

impl KState {
    pub fn new() -> Self {
        KState {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            actions: ActionArena::default(),
            labels: Interner::default(),
            procs: Vec::new(),
            live: 0,
            events_processed: 0,
            event_limit: None,
            shutdown: false,
            panic_info: None,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Interns `s` in the kernel label table.
    pub fn intern(&mut self, s: &str) -> Label {
        self.labels.intern(s)
    }

    /// Schedules a wake of `pid` at absolute time `at`.
    pub fn schedule_wake(&mut self, at: SimTime, pid: Pid) {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.next_seq();
        self.queue.schedule(at, seq, EventPayload::Wake(pid));
    }

    /// Schedules a kernel action at absolute time `at`.
    pub fn schedule_action<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut KState) + Send + 'static,
    {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.next_seq();
        let slot = self.actions.insert(Box::new(f));
        self.queue.schedule(at, seq, EventPayload::Action(slot));
    }

    /// Pops the next event in global `(time, seq)` order, advancing `now`
    /// and the fired-event counter.
    pub fn pop_event(&mut self) -> Option<(SimTime, EventPayload)> {
        let (time, _seq, payload) = self.queue.pop()?;
        self.now = time;
        self.events_processed += 1;
        Some((time, payload))
    }

    /// Removes the fired action from the arena.
    pub fn take_action(&mut self, slot: u32) -> Action {
        self.actions.take(slot)
    }

    /// Names and block reasons of all non-finished processes, for deadlock
    /// diagnostics.
    pub fn blocked_summary(&self) -> Vec<(String, String)> {
        self.procs
            .iter()
            .filter(|p| p.state == ProcState::Blocked)
            .map(|p| (p.name.clone(), p.block_reason.render(&self.labels)))
            .collect()
    }
}

/// Shared kernel: state plus the engine's own handoff gate.
pub(crate) struct Kernel {
    pub state: Mutex<KState>,
    pub engine_gate: Gate,
}

impl Kernel {
    pub fn new() -> Arc<Kernel> {
        Arc::new(Kernel {
            state: Mutex::new(KState::new()),
            engine_gate: Gate::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_entry(name: &str, labels: &mut Interner) -> ProcEntry {
        let label = labels.intern(name);
        ProcEntry {
            name: name.into(),
            label,
            gate: Arc::new(crate::gate::Gate::new()),
            state: ProcState::Blocked,
            block_reason: BlockReason::NotStarted,
            join_waiters: vec![],
        }
    }

    #[test]
    fn queues_pop_in_time_then_seq_order() {
        let mut ks = KState::new();
        let mut labels = Interner::default();
        for name in ["p0", "p1", "p2"] {
            let e = proc_entry(name, &mut labels);
            ks.procs.push(e);
        }
        ks.schedule_wake(SimTime::from_secs_f64(2.0), 0);
        ks.schedule_wake(SimTime::from_secs_f64(1.0), 1);
        ks.schedule_wake(SimTime::from_secs_f64(1.0), 2);
        let pops: Vec<Pid> = std::iter::from_fn(|| {
            ks.pop_event().map(|(_, p)| match p {
                EventPayload::Wake(pid) => pid,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(pops, vec![1, 2, 0], "ties broken by scheduling order");
    }

    #[test]
    fn interner_dedups() {
        let mut i = Interner::default();
        let a = i.intern("ch");
        let b = i.intern("ch");
        let c = i.intern("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(a), "ch");
    }

    #[test]
    fn block_reasons_render_legacy_strings() {
        let mut i = Interner::default();
        let ch = i.intern("acks");
        assert_eq!(BlockReason::NotStarted.render(&i), "not started");
        assert_eq!(
            BlockReason::HoldUntil(SimTime::from_secs(2)).render(&i),
            "hold until 2.000000s"
        );
        assert_eq!(BlockReason::Recv(ch).render(&i), "recv on 'acks'");
        assert_eq!(
            BlockReason::RecvDeadline(ch, SimTime::from_secs(1)).render(&i),
            "recv on 'acks' (deadline 1.000000s)"
        );
        assert_eq!(
            BlockReason::Acquire(2, ch).render(&i),
            "acquire 2 of 'acks'"
        );
        assert_eq!(BlockReason::Join(ch).render(&i), "join 'acks'");
    }
}
