//! Ablation A3 (paper §III.C.2): region-based allocation vs per-object
//! device mallocs — both the *virtual* cost charged by the overhead model
//! and the real host-side bookkeeping cost of the allocator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device::{MemorySpace, OverheadModel, Region};
use simtime::{Sim, SimTime};

/// Virtual time to serve `allocs` small allocations through per-object
/// mallocs vs a region (malloc overhead only on block growth).
fn virtual_alloc_time(allocs: usize, use_region: bool) -> SimTime {
    let overheads = OverheadModel::default();
    let mut sim = Sim::new();
    sim.spawn("allocator", move |ctx| async move {
        let space = MemorySpace::new("gpu", 1 << 30);
        if use_region {
            let mut region = Region::new(space, 1 << 20);
            for _ in 0..allocs {
                let (_, grew) = region.alloc(64).unwrap();
                if grew {
                    ctx.hold(overheads.device_malloc).await;
                }
            }
        } else {
            let mut live = Vec::with_capacity(allocs);
            for _ in 0..allocs {
                live.push(space.alloc(64).unwrap());
                ctx.hold(overheads.device_malloc).await;
            }
            for id in live {
                space.free(id);
            }
        }
    });
    sim.run().unwrap().end_time
}

fn bench_virtual_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("region/virtual_cost");
    g.sample_size(10);
    for allocs in [1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("malloc", allocs), &allocs, |b, &a| {
            b.iter(|| virtual_alloc_time(a, false));
        });
        g.bench_with_input(BenchmarkId::new("region", allocs), &allocs, |b, &a| {
            b.iter(|| virtual_alloc_time(a, true));
        });
    }
    g.finish();

    // Print the headline ratio once (criterion benches may not assert).
    let malloc = virtual_alloc_time(10_000, false);
    let region = virtual_alloc_time(10_000, true);
    println!(
        "\nA3 headline: 10k small allocations cost {malloc} via device malloc vs {region} via region ({}x)",
        (malloc.as_secs_f64() / region.as_secs_f64().max(1e-12)) as u64
    );
}

fn bench_host_bookkeeping(c: &mut Criterion) {
    let mut g = c.benchmark_group("region/host_bookkeeping");
    g.bench_function("region_10k_allocs", |b| {
        b.iter(|| {
            let space = MemorySpace::new("gpu", 1 << 30);
            let mut region = Region::new(space, 1 << 20);
            for _ in 0..10_000 {
                region.alloc(64).unwrap();
            }
        });
    });
    g.bench_function("space_10k_allocs", |b| {
        b.iter(|| {
            let space = MemorySpace::new("gpu", 1 << 30);
            let ids: Vec<_> = (0..10_000).map(|_| space.alloc(64).unwrap()).collect();
            for id in ids {
                space.free(id);
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_virtual_cost, bench_host_bookkeeping);
criterion_main!(benches);
