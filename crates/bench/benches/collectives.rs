//! Criterion benchmarks of the network layer: collective algorithms and
//! the shuffle at several cluster sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim::{shuffle, CollectiveSeq, Network, NetworkParams, ShuffleItem};
use simtime::Sim;

fn run_allreduce(nodes: usize) -> simtime::SimTime {
    let mut sim = Sim::new();
    let net = Network::new("n", nodes, NetworkParams::infiniband_qdr());
    for rank in 0..nodes {
        let comm = net.communicator(rank);
        sim.spawn(&format!("r{rank}"), move |ctx| async move {
            let seq = CollectiveSeq::new();
            let coll = comm.collectives(&seq);
            for _ in 0..10 {
                coll.allreduce(&ctx, 4096, rank as u64, |a, b| a + b).await;
            }
        });
    }
    sim.run().unwrap().end_time
}

fn run_shuffle(nodes: usize, items_per_node: usize) -> simtime::SimTime {
    let mut sim = Sim::new();
    let net = Network::new("n", nodes, NetworkParams::infiniband_qdr());
    for rank in 0..nodes {
        let comm = net.communicator(rank);
        sim.spawn(&format!("r{rank}"), move |ctx| async move {
            let seq = CollectiveSeq::new();
            let items: Vec<ShuffleItem<u64>> = (0..items_per_node)
                .map(|i| ShuffleItem {
                    bucket: (rank * items_per_node + i) as u64 % 64,
                    bytes: 128,
                    value: i as u64,
                })
                .collect();
            let _ = shuffle(&comm, &seq, &ctx, items).await;
        });
    }
    sim.run().unwrap().end_time
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("net/allreduce_x10");
    g.sample_size(10);
    for nodes in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &n| {
            b.iter(|| run_allreduce(n));
        });
    }
    g.finish();
}

fn bench_shuffle(c: &mut Criterion) {
    let mut g = c.benchmark_group("net/shuffle_1k_items");
    g.sample_size(10);
    for nodes in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &n| {
            b.iter(|| run_shuffle(n, 1000));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_allreduce, bench_shuffle);
criterion_main!(benches);
