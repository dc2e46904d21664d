//! Synthetic engine stress workload shared by the throughput micro-bench
//! and `prs bench` — the "1000-node synthetic": `nodes × timers_per_node`
//! self-rescheduling timers kept resident simultaneously, so the event
//! queue holds a million entries while events fire.
//!
//! Timers use [`crate::Sim::schedule`] (engine-thread callbacks, no process
//! handoff), so the measured cost is the calendar queue plus arena
//! overhead.

use crate::engine::{Sim, Timers};
use crate::time::SimTime;

/// Parameters for the synthetic stress run.
#[derive(Debug, Clone, Copy)]
pub struct StressSpec {
    /// Simulated node count.
    pub nodes: usize,
    /// Resident timers per node; total population = `nodes * timers_per_node`.
    pub timers_per_node: usize,
    /// How many times each timer chain re-arms itself after the first fire.
    pub refires: usize,
}

impl StressSpec {
    /// The 1000-node / million-event configuration the bench gate uses.
    pub fn thousand_node() -> Self {
        StressSpec {
            nodes: 1000,
            timers_per_node: 1000,
            refires: 1,
        }
    }

    /// Total events the run will fire.
    pub fn total_events(&self) -> u64 {
        (self.nodes * self.timers_per_node * (1 + self.refires)) as u64
    }
}

/// Deterministic per-timer gap in virtual nanoseconds: a cheap integer hash
/// spreads timestamps so buckets stay balanced without `rand`.
fn gap_nanos(node: usize, timer: usize, round: usize) -> f64 {
    let mut h = (node as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(timer as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(round as u64);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 29;
    (1 + h % 1_000_000) as f64 // 1ns ..= 1ms
}

/// Runs the synthetic and returns `(events_processed, end_time)`; callers
/// measure wall-clock outside.
pub fn run_stress(spec: StressSpec) -> (u64, SimTime) {
    let sim = Sim::new();

    fn arm(t: &mut Timers, node: usize, timer: usize, round: usize, refires: usize) {
        let gap = SimTime::from_nanos(gap_nanos(node, timer, round));
        t.schedule(gap, move |t2| {
            if round < refires {
                arm(t2, node, timer, round + 1, refires);
            }
        });
    }

    for node in 0..spec.nodes {
        for timer in 0..spec.timers_per_node {
            let refires = spec.refires;
            let gap = SimTime::from_nanos(gap_nanos(node, timer, 0));
            sim.schedule(gap, move |t| {
                if refires > 0 {
                    arm(t, node, timer, 1, refires);
                }
            });
        }
    }

    let report = sim.run().expect("stress sim cannot deadlock");
    (report.events_processed, report.end_time)
}

/// The seed engine's only timer mechanism, for the `speedup_vs_legacy`
/// bench ratio: `procs` OS-thread processes each `hold()`ing `holds`
/// times. Every event pays two gate context switches, so this is the
/// honest "before" of timers that run on the engine thread. Returns the
/// events processed (callers time the run themselves).
pub fn run_hold_baseline(procs: usize, holds: usize) -> u64 {
    let mut sim = Sim::new();
    for p in 0..procs {
        sim.spawn(&format!("hold{p}"), move |ctx| {
            for round in 0..holds {
                ctx.hold(SimTime::from_nanos(gap_nanos(p, round, 0)));
            }
        });
    }
    let report = sim.run().expect("hold baseline cannot deadlock");
    report.events_processed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_baseline_counts_every_hold() {
        // One start wake per process plus one wake per hold.
        let events = run_hold_baseline(10, 7);
        assert_eq!(events, 10 * (7 + 1));
    }

    #[test]
    fn stress_fires_every_event_and_is_repeat_stable() {
        let spec = StressSpec {
            nodes: 8,
            timers_per_node: 50,
            refires: 2,
        };
        let first = run_stress(spec);
        assert_eq!(first.0, spec.total_events());
        assert_eq!(run_stress(spec), first, "repeat run diverged");
    }
}
