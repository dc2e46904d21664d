//! The public simulation engine: spawning processes, running the event loop,
//! and the in-process context handle ([`SimCtx`]).

use crate::gate::Gate;
use crate::kernel::{BlockReason, EventPayload, KState, Kernel, Pid, ProcEntry, ProcState};
use crate::time::SimTime;
use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Payload used to unwind parked process threads when the simulation ends.
struct Shutdown;

/// Stack size for simulation process threads. Processes are shallow
/// (closure + a few library frames), and 1000-node runs spawn thousands of
/// them, so the default 8 MiB OS stacks are traded for 1 MiB.
const PROC_STACK_BYTES: usize = 1 << 20;

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

/// Registry of OS threads backing simulation processes, joined on shutdown.
type ThreadRegistry = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// A deterministic process-oriented discrete-event simulation.
///
/// Processes are plain closures written in blocking style; they advance
/// virtual time with [`SimCtx::hold`] and synchronize through
/// [`crate::Resource`] and [`crate::Channel`]. Exactly one process (or the
/// engine) executes at any real-time instant, so runs are deterministic:
/// events at equal virtual times fire in scheduling order.
///
/// ```
/// use simtime::{Sim, SimTime};
///
/// let mut sim = Sim::new();
/// sim.spawn("worker", |ctx| {
///     ctx.hold(SimTime::from_secs(2));
///     assert_eq!(ctx.now(), SimTime::from_secs(2));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time, SimTime::from_secs(2));
/// ```
pub struct Sim {
    kernel: Arc<Kernel>,
    threads: ThreadRegistry,
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
            kernel: Kernel::new(),
            threads: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Aborts the run with [`SimError::EventLimitExceeded`] after `limit`
    /// events; useful to bound property tests.
    pub fn set_event_limit(&self, limit: u64) {
        self.kernel.state.lock().event_limit = Some(limit);
    }

    /// Spawns a root process that will begin executing at the current
    /// virtual time once [`Sim::run`] is called.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> ProcHandle
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        spawn_process(&self.kernel, &self.threads, name, f)
    }

    /// Schedules a lightweight timer `after` the current virtual time.
    ///
    /// Timers run on the engine thread with no process handoff — no OS
    /// thread, no context switches — so million-timer workloads pay only
    /// queue cost. The callback may reschedule via [`Timers::schedule`].
    pub fn schedule<F>(&self, after: SimTime, f: F)
    where
        F: FnOnce(&mut Timers) + Send + 'static,
    {
        let mut ks = self.kernel.state.lock();
        let at = ks.now + after;
        ks.schedule_action(at, move |ks| {
            let mut t = Timers { ks };
            f(&mut t);
        });
    }

    /// Runs the event loop to completion and returns a report, or the first
    /// error (deadlock, panic, event-limit).
    pub fn run(self) -> Result<SimReport, SimError> {
        let result = self.event_loop();
        self.shutdown();
        result
    }

    fn event_loop(&self) -> Result<SimReport, SimError> {
        loop {
            let next = {
                let mut ks = self.kernel.state.lock();
                if let Some((process, message)) = ks.panic_info.take() {
                    return Err(SimError::ProcessPanicked { process, message });
                }
                if let Some(limit) = ks.event_limit {
                    if ks.events_processed > limit {
                        return Err(SimError::EventLimitExceeded { limit });
                    }
                }
                match ks.pop_event() {
                    Some((_, payload)) => Some(payload),
                    None => {
                        if ks.live == 0 {
                            return Ok(SimReport {
                                end_time: ks.now,
                                events_processed: ks.events_processed,
                            });
                        }
                        None
                    }
                }
            };

            let Some(payload) = next else {
                let ks = self.kernel.state.lock();
                return Err(SimError::Deadlock {
                    now: ks.now,
                    blocked: ks.blocked_summary(),
                });
            };

            match payload {
                EventPayload::Wake(pid) => {
                    let gate = {
                        let mut ks = self.kernel.state.lock();
                        let entry = &mut ks.procs[pid];
                        if entry.state == ProcState::Finished {
                            continue;
                        }
                        debug_assert_eq!(entry.state, ProcState::Blocked);
                        entry.state = ProcState::Running;
                        entry.gate.clone()
                    };
                    gate.open();
                    self.kernel.engine_gate.wait();
                }
                EventPayload::Action(slot) => {
                    let mut ks = self.kernel.state.lock();
                    let f = ks.take_action(slot);
                    f(&mut ks);
                }
            }
        }
    }

    /// Unwinds every still-parked process thread and joins all threads so no
    /// OS threads leak past `run`.
    fn shutdown(&self) {
        let gates: Vec<Arc<Gate>> = {
            let mut ks = self.kernel.state.lock();
            ks.shutdown = true;
            ks.procs
                .iter()
                .filter(|p| p.state != ProcState::Finished)
                .map(|p| p.gate.clone())
                .collect()
        };
        for g in gates {
            g.open();
        }
        // New threads can no longer be registered: every live process is
        // unwinding, and unwinding processes cannot spawn.
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for t in handles {
            let _ = t.join();
        }
    }
}

/// Handle passed to [`Sim::schedule`] timer callbacks: read the clock and
/// chain further timers, all from the engine thread.
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

fn spawn_process<F>(kernel: &Arc<Kernel>, threads: &ThreadRegistry, name: &str, f: F) -> ProcHandle
where
    F: FnOnce(&SimCtx) + Send + 'static,
{
    let gate = Arc::new(Gate::new());
    let pid = {
        let mut ks = kernel.state.lock();
        let pid = ks.procs.len();
        let label = ks.intern(name);
        ks.procs.push(ProcEntry {
            name: name.to_string(),
            label,
            gate: gate.clone(),
            state: ProcState::Blocked,
            block_reason: BlockReason::NotStarted,
            join_waiters: Vec::new(),
        });
        ks.live += 1;
        let now = ks.now;
        ks.schedule_wake(now, pid);
        pid
    };

    let ctx = SimCtx {
        kernel: kernel.clone(),
        threads: threads.clone(),
        pid,
        gate: gate.clone(),
    };
    let kernel2 = kernel.clone();
    let thread = std::thread::Builder::new()
        .name(format!("sim:{name}"))
        .stack_size(PROC_STACK_BYTES)
        .spawn(move || {
            ctx.gate.wait();
            if ctx.kernel.state.lock().shutdown {
                finishing(&kernel2, pid, None, true);
                return;
            }
            let result = panic::catch_unwind(AssertUnwindSafe(|| f(&ctx)));
            match result {
                Ok(()) => finishing(&kernel2, pid, None, false),
                Err(payload) => {
                    if payload.is::<Shutdown>() {
                        finishing(&kernel2, pid, None, true);
                    } else {
                        let msg = panic_message(payload.as_ref());
                        finishing(&kernel2, pid, Some(msg), false);
                    }
                }
            }
        })
        .expect("failed to spawn simulation process thread");
    threads.lock().push(thread);

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

/// Marks `pid` finished, wakes joiners, and returns control to the engine.
fn finishing(kernel: &Arc<Kernel>, pid: Pid, panic_msg: Option<String>, shutting_down: bool) {
    {
        let mut ks = kernel.state.lock();
        let now = ks.now;
        let entry = &mut ks.procs[pid];
        entry.state = ProcState::Finished;
        let waiters = std::mem::take(&mut entry.join_waiters);
        ks.live -= 1;
        if !shutting_down {
            for w in waiters {
                ks.schedule_wake(now, w);
            }
            if let Some(msg) = panic_msg {
                let name = ks.procs[pid].name.clone();
                ks.panic_info = Some((name, msg));
            }
        }
    }
    kernel.engine_gate.open();
}

/// The in-process handle: every process closure receives `&SimCtx` and uses
/// it for all interaction with virtual time and the scheduler.
pub struct SimCtx {
    kernel: Arc<Kernel>,
    threads: ThreadRegistry,
    pid: Pid,
    gate: Arc<Gate>,
}

impl SimCtx {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    /// Advances this process's virtual time by `dt`, letting other events
    /// fire in between.
    pub fn hold(&self, dt: SimTime) {
        {
            let mut ks = self.kernel.state.lock();
            let at = ks.now + dt;
            ks.schedule_wake(at, self.pid);
            ks.procs[self.pid].block_reason = BlockReason::HoldUntil(at);
        }
        self.yield_to_engine();
    }

    /// Spawns a child process starting at the current virtual time.
    pub fn spawn<F>(&self, name: &str, f: F) -> ProcHandle
    where
        F: FnOnce(&SimCtx) + Send + 'static,
    {
        spawn_process(&self.kernel, &self.threads, name, f)
    }

    /// Blocks until the process behind `handle` finishes. Returns
    /// immediately if it already has.
    pub fn join(&self, handle: &ProcHandle) {
        {
            let mut ks = self.kernel.state.lock();
            if ks.procs[handle.pid].state == ProcState::Finished {
                return;
            }
            ks.procs[handle.pid].join_waiters.push(self.pid);
            let target = ks.procs[handle.pid].label;
            ks.procs[self.pid].block_reason = BlockReason::Join(target);
        }
        self.yield_to_engine();
    }

    /// Joins every handle in `handles`, in order.
    pub fn join_all(&self, handles: &[ProcHandle]) {
        for h in handles {
            self.join(h);
        }
    }

    pub(crate) fn pid(&self) -> Pid {
        self.pid
    }

    pub(crate) fn with_kernel<R>(&self, f: impl FnOnce(&mut KState) -> R) -> R {
        let mut ks = self.kernel.state.lock();
        f(&mut ks)
    }

    /// Parks this process and hands control back to the engine. The caller
    /// must already have arranged for a future wake (a scheduled event, a
    /// resource grant, a channel delivery, or a join notification).
    pub(crate) fn yield_to_engine(&self) {
        self.kernel.state.lock().procs[self.pid].state = ProcState::Blocked;
        self.kernel.engine_gate.open();
        self.gate.wait();
        if self.kernel.state.lock().shutdown {
            panic::panic_any(Shutdown);
        }
    }
}
