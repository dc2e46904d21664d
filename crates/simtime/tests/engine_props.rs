//! Property-based tests of the simulation engine: determinism under
//! arbitrary process structures, resource conservation, virtual-time
//! monotonicity, and channel FIFO/conservation guarantees.

use parking_lot::Mutex;
use proptest::prelude::*;
use simtime::{Channel, Resource, Sim, SimTime};
use std::sync::Arc;

/// A little random program: each process repeatedly (optionally) grabs a
/// resource, holds for a delay, and logs a tick.
fn run_program(
    procs: &[(Vec<u16>, bool)],
    capacity: u64,
) -> (Vec<(usize, u64)>, f64, u64) {
    let mut sim = Sim::new();
    let res = Resource::new("r", capacity);
    let log: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    for (pid, (delays, use_resource)) in procs.iter().enumerate() {
        let res = res.clone();
        let log = log.clone();
        let delays = delays.clone();
        let use_resource = *use_resource;
        sim.spawn(&format!("p{pid}"), move |ctx| async move {
            for &d in &delays {
                if use_resource {
                    res.acquire(&ctx, 1).await;
                }
                ctx.hold(SimTime::from_micros(d as f64 + 1.0)).await;
                log.lock()
                    .push((pid, (ctx.now().as_secs_f64() * 1e9) as u64));
                if use_resource {
                    res.release(&ctx, 1);
                }
            }
        });
    }
    let report = sim.run().expect("program runs");
    let log = Arc::try_unwrap(log).ok().unwrap().into_inner();
    (log, report.end_time.as_secs_f64(), report.events_processed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_programs_are_deterministic(
        procs in proptest::collection::vec(
            (proptest::collection::vec(0u16..500, 0..6), any::<bool>()),
            1..8,
        ),
        capacity in 1u64..4,
    ) {
        let a = run_program(&procs, capacity);
        let b = run_program(&procs, capacity);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn resources_are_conserved(
        procs in proptest::collection::vec(
            (proptest::collection::vec(0u16..100, 1..5), Just(true)),
            1..6,
        ),
        capacity in 1u64..3,
    ) {
        let mut sim = Sim::new();
        let res = Resource::new("r", capacity);
        for (pid, (delays, _)) in procs.iter().enumerate() {
            let res = res.clone();
            let delays = delays.clone();
            sim.spawn(&format!("p{pid}"), move |ctx| async move {
                for &d in &delays {
                    res.with(&ctx, 1, || ()).await;
                    ctx.hold(SimTime::from_micros(d as f64)).await;
                }
            });
        }
        sim.run().unwrap();
        // Everything released at the end.
        prop_assert_eq!(res.available(), capacity);
        prop_assert_eq!(res.queue_len(), 0);
    }

    #[test]
    fn per_process_time_is_monotone(
        delays in proptest::collection::vec(0u16..1000, 1..20),
    ) {
        let stamps: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        let s2 = stamps.clone();
        sim.spawn("p", move |ctx| async move {
            for &d in &delays {
                ctx.hold(SimTime::from_micros(d as f64)).await;
                s2.lock().push(ctx.now().as_secs_f64());
            }
        });
        sim.run().unwrap();
        let stamps = stamps.lock();
        prop_assert!(stamps.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn channels_conserve_and_order_messages(
        payloads in proptest::collection::vec(any::<u32>(), 0..50),
        consumers in 1usize..4,
    ) {
        let mut sim = Sim::new();
        let ch: Channel<u32> = Channel::new("c");
        let got: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        for c in 0..consumers {
            let rx = ch.clone();
            let got = got.clone();
            sim.spawn(&format!("c{c}"), move |ctx| async move {
                while let Some(v) = rx.recv(&ctx).await {
                    got.lock().push(v);
                }
            });
        }
        let tx = ch.clone();
        let payloads2 = payloads.clone();
        sim.spawn("producer", move |ctx| async move {
            for v in payloads2 {
                tx.send(&ctx, v);
            }
            tx.close(&ctx);
        });
        sim.run().unwrap();
        let mut got = Arc::try_unwrap(got).ok().unwrap().into_inner();
        // Conservation (as multiset).
        let mut expect = payloads.clone();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn single_consumer_preserves_fifo(
        payloads in proptest::collection::vec(any::<u32>(), 0..50),
    ) {
        let mut sim = Sim::new();
        let ch: Channel<u32> = Channel::new("c");
        let got: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let rx = ch.clone();
        let got2 = got.clone();
        sim.spawn("consumer", move |ctx| async move {
            while let Some(v) = rx.recv(&ctx).await {
                got2.lock().push(v);
            }
        });
        let tx = ch.clone();
        let payloads2 = payloads.clone();
        sim.spawn("producer", move |ctx| async move {
            for v in payloads2 {
                tx.send(&ctx, v);
            }
            tx.close(&ctx);
        });
        sim.run().unwrap();
        prop_assert_eq!(&*got.lock(), &payloads);
    }
}
