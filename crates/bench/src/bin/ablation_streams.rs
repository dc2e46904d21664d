//! Ablation A2 (paper §III.B.3b, Equations (9)–(11)): CUDA streams and
//! task granularity on the GPU.
//!
//! Three questions the paper's analysis answers, exercised here:
//! 1. How much does multi-stream overlap help, as a function of the
//!    overlap percentage `op` (Equation (9))? The ideal pipeline speedup
//!    is `1 / max(op, 1-op)`: maximal when transfer and compute are
//!    balanced (op = 50 %), negligible when either dominates — exactly
//!    the paper's "the stream approach can only improve application
//!    performance whose data transferring overhead is similar to
//!    computation overhead".
//! 2. What block size saturates the GPU (Equation (11) `MinBs`)?
//! 3. Fermi (one DMA engine, C2070) vs Kepler (dual DMA, K20) on
//!    bidirectional transfer pipelines.

use device::{Gpu, OverheadModel, WorkProfile};
use prs_bench::{fmt_secs, print_table, write_json};
use roofline::granularity::{min_block_size, overlap_percentage, GemmIntensity};
use roofline::profiles::DeviceProfile;
use serde::Serialize;
use simtime::Sim;

#[derive(Serialize)]
struct OverlapRow {
    ai: f64,
    op_eq9: f64,
    ideal_speedup: f64,
    one_stream: f64,
    four_streams: f64,
    measured_speedup: f64,
}

/// Pushes `blocks` staged (H2D + kernel) blocks through `streams`
/// concurrent streams on a Delta C2070 and returns the virtual makespan.
fn run_streams(profile: &DeviceProfile, streams: usize, blocks: usize, block_bytes: u64, ai: f64) -> f64 {
    let overheads = OverheadModel::zero(); // isolate the pipeline effect
    let gpu = Gpu::new("gpu", profile.gpu().clone(), profile.cpu.dram_bw, overheads);
    let work = WorkProfile {
        flops: block_bytes as f64 * ai,
        dram_bytes: block_bytes as f64,
    };
    let queue: simtime::Channel<u64> = simtime::Channel::new("blocks");
    let mut sim = Sim::new();
    for s in 0..streams {
        let gpu = gpu.clone();
        let q = queue.clone();
        sim.spawn(&format!("stream{s}"), move |ctx| async move {
            let cctx = gpu.create_context(&ctx).await;
            let stream = cctx.stream();
            while let Some(_b) = q.recv(&ctx).await {
                stream.run_block(&ctx, block_bytes, &work, 0, || ()).await;
            }
        });
    }
    let q = queue.clone();
    sim.spawn("feeder", move |ctx| async move {
        for b in 0..blocks {
            q.send(&ctx, b as u64);
        }
        q.close(&ctx);
    });
    sim.run().expect("stream sim").end_time.as_secs_f64()
}

fn main() {
    let delta = DeviceProfile::delta_node();
    let blocks = 16;
    let block_bytes: u64 = 16 << 20; // 16 MB staged blocks

    // --- 1. Overlap sweep: AI spans transfer-dominated (low AI, op->1)
    //        through balanced (AI = staged ridge, op = 0.5) to
    //        compute-dominated (high AI, op->0). ---
    let staged_ridge = delta
        .gpu_roofline(roofline::model::DataResidency::Staged)
        .ridge_point();
    let ais = [
        staged_ridge / 16.0,
        staged_ridge / 4.0,
        staged_ridge,
        staged_ridge * 4.0,
        staged_ridge * 16.0,
    ];
    let mut rows = Vec::new();
    for &ai in &ais {
        eprintln!("ablation_streams: AI = {ai:.0} ...");
        let op = overlap_percentage(&delta, block_bytes as f64, ai);
        let one = run_streams(&delta, 1, blocks, block_bytes, ai);
        let four = run_streams(&delta, 4, blocks, block_bytes, ai);
        rows.push(OverlapRow {
            ai,
            op_eq9: op,
            ideal_speedup: 1.0 / op.max(1.0 - op),
            one_stream: one,
            four_streams: four,
            measured_speedup: one / four,
        });
    }

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.ai),
                format!("{:.1}%", r.op_eq9 * 100.0),
                format!("{:.2}x", r.ideal_speedup),
                fmt_secs(r.one_stream),
                fmt_secs(r.four_streams),
                format!("{:.2}x", r.measured_speedup),
            ]
        })
        .collect();
    print_table(
        "Ablation A2: stream overlap vs Equation (9), 16 x 16 MB staged blocks on C2070",
        &["AI", "op (Eq 9)", "Ideal", "1 stream", "4 streams", "Measured"],
        &printable,
    );
    println!("\nPeak benefit sits at op = 50% (AI = staged ridge = {staged_ridge:.0}), fading on both sides —");
    println!("the paper's condition (1) for launching multiple streams.");

    // --- 2. Equation (11): minimum saturating block size. ---
    println!("\nEquation (11) minimum saturating block sizes (GEMM intensity curve):");
    for profile in [DeviceProfile::delta_node(), DeviceProfile::bigred2_node()] {
        let m = min_block_size(&profile, &GemmIntensity, 1e15).expect("GEMM curve reaches ridge");
        println!(
            "  {}: MinBs = {:.3} MB (tile edge n = {:.0}) — condition (2): blocks below this cannot reach peak",
            profile.name,
            m / 1e6,
            GemmIntensity::edge(m)
        );
    }

    // --- 3. Fermi vs Kepler: bidirectional transfer pipeline (H2D in +
    //        D2H out per block). Kepler's dual DMA overlaps directions. ---
    println!("\nFermi vs Kepler, 8 blocks with both H2D and D2H transfers (AI = staged ridge):");
    let mut fvk = Vec::new();
    for profile in [DeviceProfile::delta_node(), DeviceProfile::bigred2_node()] {
        let ai = profile
            .gpu_roofline(roofline::model::DataResidency::Staged)
            .ridge_point();
        let overheads = OverheadModel::zero();
        let gpu = Gpu::new("gpu", profile.gpu().clone(), profile.cpu.dram_bw, overheads);
        let work = WorkProfile {
            flops: block_bytes as f64 * ai,
            dram_bytes: block_bytes as f64,
        };
        let mut sim = Sim::new();
        for s in 0..2 {
            let gpu = gpu.clone();
            sim.spawn(&format!("stream{s}"), move |ctx| async move {
                let cctx = gpu.create_context(&ctx).await;
                let stream = cctx.stream();
                for _ in 0..4 {
                    stream
                        .run_block(&ctx, block_bytes, &work, block_bytes, || ())
                        .await;
                }
            });
        }
        let t = sim.run().expect("sim").end_time.as_secs_f64();
        println!(
            "  {} ({}, {} DMA engine(s)): {}",
            profile.name,
            profile.gpu().model,
            if profile.gpu().hw_queues > 1 { 2 } else { 1 },
            fmt_secs(t)
        );
        fvk.push((profile.name.clone(), t));
    }

    write_json("ablation_streams", &rows);
}
