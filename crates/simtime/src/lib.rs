//! # simtime — deterministic process-oriented discrete-event simulation
//!
//! The substrate every simulated component of `hetero-prs` runs on:
//! a virtual clock, an event queue, and *processes* — `async` tasks run
//! one poll at a time by a single-threaded executor, so that runs are
//! fully deterministic (events at equal times fire in scheduling order).
//!
//! Building blocks:
//!
//! - [`Sim`] / [`SimCtx`] — engine and per-process handle ([`SimCtx::hold`]
//!   advances time, [`SimCtx::spawn`]/[`SimCtx::join`] manage processes).
//! - [`Resource`] — FIFO counted resource (GPU engines, cores, links).
//! - [`Channel`] — MPMC message channel with optional delivery latency.
//! - [`SimTime`] — virtual instants/durations in seconds.
//!
//! A process is spawned from a closure that receives its own [`SimCtx`]
//! and returns a future. Waiting operations (`hold`, `join`, `recv`,
//! `acquire`) are awaited; non-waiting ones (`send`, `release`, `close`)
//! are plain calls. No OS thread is started for a process: the executor
//! polls its task on the thread that calls [`Sim::run`] whenever the
//! process's wake event fires.
//!
//! ```
//! use simtime::{Channel, Resource, Sim, SimTime};
//!
//! let mut sim = Sim::new();
//! let pci = Resource::new("pcie", 1);
//! let jobs: Channel<u64> = Channel::new("jobs");
//!
//! let rx = jobs.clone();
//! let pci2 = pci.clone();
//! sim.spawn("gpu-daemon", move |ctx| async move {
//!     while let Some(bytes) = rx.recv(&ctx).await {
//!         pci2.with(&ctx, 1, || { /* exclusive transfer */ }).await;
//!         ctx.hold(SimTime::from_secs_f64(bytes as f64 / 8e9)).await;
//!     }
//! });
//! let tx = jobs.clone();
//! sim.spawn("scheduler", move |ctx| async move {
//!     tx.send(&ctx, 16_000_000_000); // 16 GB over 8 GB/s => 2 s
//!     tx.close(&ctx);
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time, SimTime::from_secs(2));
//! ```

#![warn(missing_docs)]

mod channel;
mod engine;
mod kernel;
pub mod queue;
mod resource;
pub mod stackctx;
pub mod stress;
mod time;

pub use channel::{Channel, RecvOutcome};
pub use engine::{ProcHandle, Sim, SimCtx, SimError, SimReport, Timers};
pub use queue::CalendarQueue;
pub use resource::Resource;
pub use stackctx::{StackCtx, StackFrame};
pub use time::SimTime;

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn empty_sim_completes_at_zero() {
        let sim = Sim::new();
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events_processed, 0);
    }

    #[test]
    fn hold_advances_only_virtual_time() {
        let mut sim = Sim::new();
        sim.spawn("p", |ctx| async move {
            ctx.hold(SimTime::from_secs(1_000_000)).await;
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_secs(1_000_000));
    }

    #[test]
    fn processes_interleave_deterministically() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for (name, delay) in [("a", 2.0), ("b", 1.0), ("c", 3.0)] {
            let order = order.clone();
            sim.spawn(name, move |ctx| async move {
                ctx.hold(SimTime::from_secs_f64(delay)).await;
                order.lock().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["b", "a", "c"]);
    }

    #[test]
    fn equal_times_fire_in_spawn_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for name in ["x", "y", "z"] {
            let order = order.clone();
            sim.spawn(name, move |ctx| async move {
                ctx.hold(SimTime::from_secs(1)).await;
                order.lock().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["x", "y", "z"]);
    }

    #[test]
    fn spawn_and_join_children() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let children: Vec<_> = (0..3)
                .map(|i| {
                    ctx.spawn(&format!("child{i}"), move |cctx| async move {
                        cctx.hold(SimTime::from_secs(i + 1)).await;
                    })
                })
                .collect();
            ctx.join_all(&children).await;
            assert_eq!(ctx.now(), SimTime::from_secs(3));
        });
        sim.run().unwrap();
    }

    #[test]
    fn join_finished_process_returns_immediately() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| async move {
            let child = ctx.spawn("child", |_| async move {});
            ctx.hold(SimTime::from_secs(5)).await;
            ctx.join(&child).await; // already finished
            assert_eq!(ctx.now(), SimTime::from_secs(5));
        });
        sim.run().unwrap();
    }

    #[test]
    fn deadlock_is_reported_with_reasons() {
        let mut sim = Sim::new();
        let ch: Channel<u8> = Channel::new("never");
        sim.spawn("stuck", move |ctx| async move {
            ch.recv(&ctx).await;
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, "stuck");
                assert!(blocked[0].1.contains("never"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_is_propagated() {
        let mut sim = Sim::new();
        sim.spawn("bad", |_| async move { panic!("boom") });
        match sim.run() {
            Err(SimError::ProcessPanicked { process, message }) => {
                assert_eq!(process, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_bounds_runaway_sims() {
        let mut sim = Sim::new();
        sim.set_event_limit(100);
        sim.spawn("spinner", |ctx| async move {
            loop {
                ctx.hold(SimTime::from_secs(1)).await;
            }
        });
        match sim.run() {
            Err(SimError::EventLimitExceeded { limit }) => assert_eq!(limit, 100),
            other => panic!("expected limit error, got {other:?}"),
        }
    }

    #[test]
    fn identical_sims_produce_identical_reports() {
        fn build_and_run(seed_delays: &[f64]) -> (SimTime, u64) {
            let mut sim = Sim::new();
            let res = Resource::new("r", 2);
            for (i, &d) in seed_delays.iter().enumerate() {
                let res = res.clone();
                sim.spawn(&format!("p{i}"), move |ctx| async move {
                    res.acquire(&ctx, 1).await;
                    ctx.hold(SimTime::from_secs_f64(d)).await;
                    res.release(&ctx, 1);
                });
            }
            let r = sim.run().unwrap();
            (r.end_time, r.events_processed)
        }
        let delays = [0.5, 1.5, 0.25, 2.0, 1.0];
        assert_eq!(build_and_run(&delays), build_and_run(&delays));
    }
}
