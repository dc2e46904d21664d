//! The public simulation engine: spawning processes, running the event loop,
//! and the in-process context handle ([`SimCtx`]).
//!
//! Processes are `async` tasks. The executor is the event loop itself: a
//! `Wake(pid)` event polls that process's future once, on the thread that
//! called [`Sim::run`], with a no-op waker. A task only ever parks inside
//! one of simtime's leaf futures ([`SimCtx::hold`], [`SimCtx::join`],
//! [`crate::Channel::recv`], [`crate::Resource::acquire`], ...), each of
//! which has already arranged its own wake event before returning
//! `Pending`. Awaiting any other future that can return `Pending` parks
//! the task with no wake arranged.

use crate::kernel::{BlockReason, EventPayload, KState, Pid, ProcEntry, ProcState, Task};
use crate::time::SimTime;
use std::cell::RefCell;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Kernel state shared by the executor and every [`SimCtx`].
type Kernel = Rc<RefCell<KState>>;

/// Why a simulation run failed.
#[derive(Debug)]
pub enum SimError {
    /// The event queue drained while processes were still blocked.
    Deadlock {
        /// Virtual time at which progress stopped.
        now: SimTime,
        /// `(process name, block reason)` for every blocked process.
        blocked: Vec<(String, String)>,
    },
    /// A process body panicked.
    ProcessPanicked {
        /// Name of the panicking process.
        process: String,
        /// Best-effort panic message.
        message: String,
    },
    /// More events fired than the configured limit allows.
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { now, blocked } => {
                write!(f, "simulation deadlocked at t={now}; blocked: ")?;
                for (i, (name, reason)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{name} ({reason})")?;
                }
                Ok(())
            }
            SimError::ProcessPanicked { process, message } => {
                write!(f, "process '{process}' panicked: {message}")
            }
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a completed simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Virtual time when the last event fired.
    pub end_time: SimTime,
    /// Total events processed by the engine loop.
    pub events_processed: u64,
}

/// Handle to a spawned process; join it from another process via
/// [`SimCtx::join`].
#[derive(Clone)]
pub struct ProcHandle {
    pub(crate) pid: Pid,
    name: String,
}

impl ProcHandle {
    /// The process name given at spawn time.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A deterministic process-oriented discrete-event simulation.
///
/// Processes are `async` tasks; they advance virtual time with
/// [`SimCtx::hold`] and synchronize through [`crate::Resource`] and
/// [`crate::Channel`]. All of them run on the thread that calls
/// [`Sim::run`], one poll at a time, so runs are deterministic: events at
/// equal virtual times fire in scheduling order.
///
/// ```
/// use simtime::{Sim, SimTime};
///
/// let mut sim = Sim::new();
/// sim.spawn("worker", |ctx| async move {
///     ctx.hold(SimTime::from_secs(2)).await;
///     assert_eq!(ctx.now(), SimTime::from_secs(2));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time, SimTime::from_secs(2));
/// ```
pub struct Sim {
    kernel: Kernel,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation at t = 0.
    pub fn new() -> Self {
        Sim {
            kernel: Rc::new(RefCell::new(KState::new())),
        }
    }

    /// Aborts the run with [`SimError::EventLimitExceeded`] after `limit`
    /// events; useful to bound property tests.
    pub fn set_event_limit(&self, limit: u64) {
        self.kernel.borrow_mut().event_limit = Some(limit);
    }

    /// Spawns a root process that will begin executing at the current
    /// virtual time once [`Sim::run`] is called. `f` receives the
    /// process's own [`SimCtx`] and returns its body, typically
    /// `|ctx| async move { ... }`; it is called when the process first
    /// runs, not at spawn time.
    pub fn spawn<F, Fut>(&mut self, name: &str, f: F) -> ProcHandle
    where
        F: FnOnce(SimCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn_process(&self.kernel, name, f)
    }

    /// Schedules a lightweight timer `after` the current virtual time.
    ///
    /// Timers run inside the event loop with no process at all, so
    /// million-timer workloads pay only queue cost. The callback may
    /// reschedule via [`Timers::schedule`].
    pub fn schedule<F>(&self, after: SimTime, f: F)
    where
        F: FnOnce(&mut Timers) + Send + 'static,
    {
        let mut ks = self.kernel.borrow_mut();
        let at = ks.now + after;
        ks.schedule_action(at, move |ks| {
            let mut t = Timers { ks };
            f(&mut t);
        });
    }

    /// Runs the event loop to completion and returns a report, or the first
    /// error (deadlock, panic, event-limit). Tasks left unfinished by an
    /// error are dropped before this returns, so their destructors run.
    pub fn run(self) -> Result<SimReport, SimError> {
        loop {
            let payload = {
                let mut ks = self.kernel.borrow_mut();
                if let Some(limit) = ks.event_limit {
                    if ks.events_processed > limit {
                        return Err(SimError::EventLimitExceeded { limit });
                    }
                }
                match ks.pop_event() {
                    Some((_, payload)) => payload,
                    None if ks.live == 0 => {
                        return Ok(SimReport {
                            end_time: ks.now,
                            events_processed: ks.events_processed,
                        })
                    }
                    None => {
                        return Err(SimError::Deadlock {
                            now: ks.now,
                            blocked: ks.blocked_summary(),
                        })
                    }
                }
            };
            match payload {
                EventPayload::Wake(pid) => self.poll_process(pid)?,
                EventPayload::Action(slot) => {
                    let mut ks = self.kernel.borrow_mut();
                    let f = ks.take_action(slot);
                    f(&mut ks);
                }
            }
        }
    }

    /// Polls `pid`'s task once. The task is out of the process table for
    /// the length of the poll, so it can spawn and reach the kernel freely.
    /// A panic in the task ends the run with [`SimError::ProcessPanicked`].
    fn poll_process(&self, pid: Pid) -> Result<(), SimError> {
        let mut task = {
            let mut ks = self.kernel.borrow_mut();
            let entry = &mut ks.procs[pid];
            if entry.state == ProcState::Finished {
                return Ok(());
            }
            debug_assert_eq!(entry.state, ProcState::Blocked);
            entry.state = ProcState::Running;
            entry.task.take().expect("a blocked process owns its task")
        };
        let mut cx = Context::from_waker(Waker::noop());
        let polled = panic::catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx)));
        let panic_msg = match polled {
            Ok(Poll::Pending) => {
                let mut ks = self.kernel.borrow_mut();
                let entry = &mut ks.procs[pid];
                entry.state = ProcState::Blocked;
                entry.task = Some(task);
                return Ok(());
            }
            Ok(Poll::Ready(())) => None,
            Err(payload) => Some(panic_message(payload.as_ref())),
        };
        drop(task);
        let mut ks = self.kernel.borrow_mut();
        let now = ks.now;
        let entry = &mut ks.procs[pid];
        entry.state = ProcState::Finished;
        let waiters = std::mem::take(&mut entry.join_waiters);
        ks.live -= 1;
        for w in waiters {
            ks.schedule_wake(now, w);
        }
        match panic_msg {
            Some(message) => Err(SimError::ProcessPanicked {
                process: ks.procs[pid].name.clone(),
                message,
            }),
            None => Ok(()),
        }
    }
}

impl Drop for Sim {
    /// Drops every task still parked (after an error, or when the
    /// simulation never ran). Tasks hold `SimCtx` clones that point back
    /// at the kernel, so this also breaks that reference cycle. The tasks
    /// are moved out first: their destructors may read the kernel.
    fn drop(&mut self) {
        let tasks: Vec<Task> = self
            .kernel
            .borrow_mut()
            .procs
            .iter_mut()
            .filter_map(|p| p.task.take())
            .collect();
        drop(tasks);
    }
}

/// Handle passed to [`Sim::schedule`] timer callbacks: read the clock and
/// chain further timers, all from the event loop.
pub struct Timers<'a> {
    ks: &'a mut KState,
}

impl Timers<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ks.now
    }

    /// Schedules a follow-up timer `after` the current virtual time.
    pub fn schedule<F>(&mut self, after: SimTime, f: F)
    where
        F: FnOnce(&mut Timers) + Send + 'static,
    {
        let at = self.ks.now + after;
        self.ks.schedule_action(at, move |ks| {
            let mut t = Timers { ks };
            f(&mut t);
        });
    }
}

fn spawn_process<F, Fut>(kernel: &Kernel, name: &str, f: F) -> ProcHandle
where
    F: FnOnce(SimCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let mut ks = kernel.borrow_mut();
    let pid = ks.procs.len();
    let ctx = SimCtx {
        kernel: kernel.clone(),
        pid,
    };
    let label = ks.intern(name);
    ks.procs.push(ProcEntry {
        name: name.to_string(),
        label,
        task: Some(Box::pin(async move { f(ctx).await })),
        state: ProcState::Blocked,
        block_reason: BlockReason::NotStarted,
        join_waiters: Vec::new(),
    });
    ks.live += 1;
    let now = ks.now;
    ks.schedule_wake(now, pid);
    ProcHandle {
        pid,
        name: name.to_string(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A process's handle on the simulation: every process body receives its
/// own `SimCtx` and uses it for all interaction with virtual time and the
/// scheduler. Cloning is cheap (a reference count); clones name the same
/// process.
#[derive(Clone)]
pub struct SimCtx {
    kernel: Kernel,
    pid: Pid,
}

impl SimCtx {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.borrow().now
    }

    /// Advances this process's virtual time by `dt`, letting other events
    /// fire in between.
    pub async fn hold(&self, dt: SimTime) {
        self.with_kernel(|ks| {
            let at = ks.now + dt;
            ks.schedule_wake(at, self.pid);
            ks.procs[self.pid].block_reason = BlockReason::HoldUntil(at);
        });
        self.park().await
    }

    /// Spawns a child process starting at the current virtual time; see
    /// [`Sim::spawn`].
    pub fn spawn<F, Fut>(&self, name: &str, f: F) -> ProcHandle
    where
        F: FnOnce(SimCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        spawn_process(&self.kernel, name, f)
    }

    /// Waits until the process behind `handle` finishes. Returns
    /// immediately if it already has.
    pub async fn join(&self, handle: &ProcHandle) {
        let finished = self.with_kernel(|ks| {
            if ks.procs[handle.pid].state == ProcState::Finished {
                return true;
            }
            ks.procs[handle.pid].join_waiters.push(self.pid);
            let target = ks.procs[handle.pid].label;
            ks.procs[self.pid].block_reason = BlockReason::Join(target);
            false
        });
        if !finished {
            self.park().await
        }
    }

    /// Joins every handle in `handles`, in order.
    pub async fn join_all(&self, handles: &[ProcHandle]) {
        for h in handles {
            self.join(h).await;
        }
    }

    pub(crate) fn pid(&self) -> Pid {
        self.pid
    }

    pub(crate) fn with_kernel<R>(&self, f: impl FnOnce(&mut KState) -> R) -> R {
        f(&mut self.kernel.borrow_mut())
    }

    /// Parks this process until its next wake event. The caller must
    /// already have arranged that wake (a scheduled event, a resource
    /// grant, a channel delivery, or a join notification).
    pub(crate) fn park(&self) -> Park {
        Park { parked: false }
    }
}

/// The one suspension point every leaf future shares: `Pending` on the
/// first poll, `Ready` on the next — which only the wake event the caller
/// arranged can deliver.
pub(crate) struct Park {
    parked: bool,
}

impl Future for Park {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.parked {
            Poll::Ready(())
        } else {
            self.parked = true;
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, Resource};
    use std::cell::Cell;

    /// Counts its own drops, so a test can tell which task states were
    /// destroyed.
    struct DropCounter(Rc<Cell<usize>>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn panic_after_hold_reports_the_original_message() {
        let mut sim = Sim::new();
        sim.spawn("bad", |ctx| async move {
            ctx.hold(SimTime::from_secs(1)).await;
            panic!("boom after hold");
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { process, message }) => {
                assert_eq!(process, "bad");
                assert_eq!(message, "boom after hold");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_lists_every_parked_process_with_its_block_reason() {
        let mut sim = Sim::new();
        let never: Channel<u8> = Channel::new("never");
        let gpu = Resource::new("gpu", 1);
        let rx = never.clone();
        let stuck = sim.spawn("stuck", move |ctx| async move {
            rx.recv(&ctx).await;
        });
        let held = gpu.clone();
        sim.spawn("owner", move |ctx| async move {
            held.acquire(&ctx, 1).await;
            never.recv(&ctx).await;
        });
        sim.spawn("waiter", move |ctx| async move {
            gpu.acquire(&ctx, 1).await;
        });
        sim.spawn("joiner", move |ctx| async move {
            ctx.join(&stuck).await;
        });
        match sim.run() {
            Err(SimError::Deadlock { now, blocked }) => {
                assert_eq!(now, SimTime::ZERO);
                let reasons: Vec<(&str, &str)> = blocked
                    .iter()
                    .map(|(p, r)| (p.as_str(), r.as_str()))
                    .collect();
                assert_eq!(
                    reasons,
                    vec![
                        ("stuck", "recv on 'never'"),
                        ("owner", "recv on 'never'"),
                        ("waiter", "acquire 1 of 'gpu'"),
                        ("joiner", "join 'stuck'"),
                    ]
                );
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn tasks_parked_at_deadlock_are_dropped() {
        let drops = Rc::new(Cell::new(0));
        let mut sim = Sim::new();
        let never: Channel<u8> = Channel::new("never");
        for i in 0..3 {
            let guard = DropCounter(drops.clone());
            let rx = never.clone();
            sim.spawn(&format!("p{i}"), move |ctx| async move {
                let _guard = guard;
                ctx.hold(SimTime::from_secs(i)).await;
                rx.recv(&ctx).await;
            });
        }
        assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
        assert_eq!(drops.get(), 3, "every parked task's state must be dropped");
    }

    #[test]
    fn tasks_parked_when_another_panics_are_dropped() {
        let drops = Rc::new(Cell::new(0));
        let mut sim = Sim::new();
        let guard = DropCounter(drops.clone());
        sim.spawn("sleeper", move |ctx| async move {
            let _guard = guard;
            ctx.hold(SimTime::from_secs(10)).await;
        });
        let guard = DropCounter(drops.clone());
        sim.spawn("bad", move |ctx| async move {
            let _guard = guard;
            ctx.hold(SimTime::from_secs(1)).await;
            panic!("boom");
        });
        assert!(matches!(sim.run(), Err(SimError::ProcessPanicked { .. })));
        assert_eq!(
            drops.get(),
            2,
            "the panicked and the parked task are both dropped"
        );
    }

    #[test]
    fn unrun_sim_drops_its_tasks() {
        let drops = Rc::new(Cell::new(0));
        let mut sim = Sim::new();
        let guard = DropCounter(drops.clone());
        sim.spawn("idle", move |_| async move {
            let _guard = guard;
        });
        drop(sim);
        assert_eq!(drops.get(), 1);
    }

    #[test]
    fn twenty_thousand_processes_run_on_the_calling_thread() {
        const PROCS: u64 = 20_000;
        let caller = std::thread::current().id();
        let off_thread = Rc::new(Cell::new(0u64));
        let mut sim = Sim::new();
        for p in 0..PROCS {
            let off_thread = off_thread.clone();
            sim.spawn(&format!("p{p}"), move |ctx| async move {
                for round in 1..=2 {
                    ctx.hold(SimTime::from_nanos((p % 97 + round) as f64)).await;
                    if std::thread::current().id() != caller {
                        off_thread.set(off_thread.get() + 1);
                    }
                }
            });
        }
        let report = sim.run().unwrap();
        // One start wake plus two hold wakes per process.
        assert_eq!(report.events_processed, 3 * PROCS);
        assert_eq!(
            off_thread.get(),
            0,
            "every poll runs on the thread that called run"
        );
    }
}
