//! Criterion micro-benchmarks of the discrete-event engine: raw event
//! throughput, process handoff cost, and resource contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simtime::{Resource, Sim, SimTime};

fn bench_event_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/event_throughput");
    for events in [1_000u64, 10_000] {
        g.bench_with_input(BenchmarkId::from_parameter(events), &events, |b, &events| {
            b.iter(|| {
                let mut sim = Sim::new();
                sim.spawn("ticker", move |ctx| async move {
                    for _ in 0..events {
                        ctx.hold(SimTime::from_micros(1.0)).await;
                    }
                });
                sim.run().unwrap()
            });
        });
    }
    g.finish();
}

fn bench_process_handoff(c: &mut Criterion) {
    c.bench_function("engine/spawn_join_100_processes", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            sim.spawn("parent", |ctx| async move {
                let children: Vec<_> = (0..100)
                    .map(|i| {
                        ctx.spawn(&format!("c{i}"), |cctx| async move {
                            cctx.hold(SimTime::from_micros(1.0)).await;
                        })
                    })
                    .collect();
                ctx.join_all(&children).await;
            });
            sim.run().unwrap()
        });
    });
}

fn bench_resource_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/resource_contention");
    for procs in [4usize, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(procs), &procs, |b, &procs| {
            b.iter(|| {
                let mut sim = Sim::new();
                let res = Resource::new("r", 2);
                for i in 0..procs {
                    let res = res.clone();
                    sim.spawn(&format!("p{i}"), move |ctx| async move {
                        for _ in 0..50 {
                            res.with(&ctx, 1, || ()).await;
                            ctx.hold(SimTime::from_micros(1.0)).await;
                        }
                    });
                }
                sim.run().unwrap()
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_throughput,
    bench_process_handoff,
    bench_resource_contention
);
criterion_main!(benches);
