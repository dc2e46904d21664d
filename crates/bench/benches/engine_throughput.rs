//! Engine event-throughput micro-benchmarks — the offline companion of
//! the `events_per_sec` / `speedup_vs_legacy` columns `prs bench --all`
//! records into BENCH_prs.json (and `--check` gates).
//!
//! Two shapes:
//! * the synthetic timer stress ([`simtime::stress::run_stress`]) at a
//!   cluster-scale population — the pure queue-cost path (engine-thread
//!   timers, no process handoff);
//! * the seed engine's hold() baseline ([`run_hold_baseline`]) — every
//!   event pays two OS context switches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simtime::stress::{run_hold_baseline, run_stress, StressSpec};

fn bench_synthetic(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_throughput/synthetic");
    for nodes in [100usize, 1000] {
        // 100 resident timers per node, one refire each: 1000 nodes puts
        // 100k timers in the queue and fires 200k events.
        let spec = StressSpec {
            nodes,
            timers_per_node: 100,
            refires: 1,
        };
        g.bench_with_input(BenchmarkId::from_parameter(nodes), &spec, |b, &spec| {
            b.iter(|| run_stress(spec));
        });
    }
    g.finish();
}

fn bench_hold_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_throughput/hold_baseline");
    g.bench_function("200x40", |b| {
        b.iter(|| run_hold_baseline(200, 40));
    });
    g.finish();
}

criterion_group!(benches, bench_synthetic, bench_hold_baseline);
criterion_main!(benches);
