//! `perfbench`: the repository benchmark. One invocation runs one
//! workload for a fixed time and prints its metrics; the last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! ```sh
//! perfbench --workload paper_cmeans_4node --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs half its time untraced and half traced and prints the per-layer
//! metrics. See `README.md` beside this package.

mod bench;
mod bundle;
mod procstat;
mod timed;
mod tracer;
mod workloads;

use bench::{Attach, Bench, OpOut};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracer::Tracer;
use workloads::{Inputs, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up is repeated at least this often, and until it has taken
/// `SETUP_MIN_S` in total or `SETUP_MAX_REPS` repetitions; `setup_s` is
/// the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_S: f64 = 0.3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value}: not a whole number"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value}: not a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// Runs ops until `budget` has elapsed (at least one).
fn phase(bench: &Bench, next_id: &mut u64, traced: bool, budget: f64) -> Vec<OpOut> {
    let start = Instant::now();
    let mut ops = Vec::new();
    loop {
        ops.push(bench.op(*next_id, traced, Attach::Workload));
        *next_id += 1;
        if start.elapsed() >= Duration::from_secs_f64(budget) {
            return ops;
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    ops: Vec<OpOut>,
    metrics: Vec<Metric>,
    /// Self time per layer per traced op, seconds (traced runs only).
    layer_self_s: Vec<(&'static str, f64)>,
}

fn run(args: &Args) -> Result<Report, String> {
    let wl = args.workload;
    let tracer = Arc::new(Tracer::new(args.trace));

    // Set-up: generate the inputs several times; keep the last.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let inputs = loop {
        let t = procstat::Stopwatch::start();
        let (inputs, times) = Inputs::generate(wl, args.seed);
        setup_s.push(t.host_s());
        gen_s.push(times.gen_s);
        let reps = setup_s.len();
        if reps >= SETUP_MAX_REPS
            || (reps >= SETUP_MIN_REPS && setup_s.iter().sum::<f64>() >= SETUP_MIN_S)
        {
            break inputs;
        }
    };

    let root = PathBuf::from(".bench_work");
    let work = root.join(format!(
        "{}-s{}-p{}",
        wl.name(),
        args.seed,
        std::process::id()
    ));
    let bench = Bench::new(wl, inputs, work, tracer.clone())?;

    // A warm-up op lets lazy allocation and caches settle; it is checked
    // and counted like any other op but not timed into a metric.
    let warmup = bench.op(1, false, Attach::Workload);
    let mut next_id = 2;
    let report = if !args.trace {
        let ops = phase(&bench, &mut next_id, false, args.seconds);
        let first = &ops[0];
        let mut metrics = vec![
            m(
                "wall_s",
                median(&ops.iter().map(|o| o.wall_s).collect::<Vec<_>>()),
                "s",
            ),
            m("setup_s", median(&setup_s), "s"),
        ];
        if let Some(rss) = procstat::peak_rss_mb() {
            metrics.push(m("peak_rss_mb", rss, "MiB"));
        }
        metrics.extend([
            // The mean, not the median: a query samples only a short window
            // of each op, so per-op values scatter between a fast and a slow
            // mode, and the median of a few such values flips between them.
            m("query_s", mean(ops.iter().map(|o| o.query_s)), "s"),
            m("virtual_compute_s", first.virtual_compute_s(), "s"),
            m("virtual_makespan_s", first.virtual_makespan_s(), "s"),
        ]);
        let ops = std::iter::once(warmup).chain(ops).collect();
        Report {
            ops,
            metrics,
            layer_self_s: Vec::new(),
        }
    } else {
        let untraced = phase(&bench, &mut next_id, false, args.seconds / 2.0);
        let traced = phase(&bench, &mut next_id, true, args.seconds / 2.0);
        // One more op harvests virtual counters the plain runs do not
        // record; on the observed workload it is the unobserved run.
        let probe_attach = if wl == Workload::ObservedDynamic32 {
            Attach::Nothing
        } else {
            Attach::Counters
        };
        let probe = bench.op(next_id, false, probe_attach);
        let ids: BTreeSet<u64> = traced.iter().map(|o| o.id).collect();
        let totals = tracer::totals(&tracer.spans(), |op| ids.contains(&op));
        let metrics = layers(&bench, &totals, &untraced, &traced, &probe, &gen_s);
        let layer_self_s = tracer::layer_self_ns(&totals)
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / 1e9 / traced.len() as f64))
            .collect();
        std::fs::create_dir_all(&root).map_err(|e| format!("creating {}: {e}", root.display()))?;
        let spans = root.join(format!("spans-{}-s{}.jsonl", wl.name(), args.seed));
        std::fs::write(&spans, tracer.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        eprintln!("spans written to {}", spans.display());
        let mut ops = vec![warmup];
        ops.extend(untraced);
        ops.extend(traced);
        ops.push(probe);
        Report {
            ops,
            metrics,
            layer_self_s,
        }
    };
    bench.cleanup();
    Ok(report)
}

/// Per-layer metrics from the traced ops (per-op means of their span
/// `totals`), the untraced ops of the same run, and the probe op.
fn layers(
    bench: &Bench,
    totals: &BTreeMap<&'static str, tracer::Totals>,
    untraced: &[OpOut],
    traced: &[OpOut],
    probe: &OpOut,
    gen_s: &[f64],
) -> Vec<Metric> {
    let n = traced.len() as f64;
    let sum_s = |keep: &dyn Fn(&str) -> bool| -> (f64, f64) {
        totals
            .iter()
            .filter(|(name, _)| keep(name))
            .fold((0.0, 0.0), |(s, c), (_, t)| {
                (s + t.total_ns as f64 / 1e9 / n, c + t.calls as f64 / n)
            })
    };
    let span_s = |name: &str| sum_s(&|s| s == name).0;
    // Kernel time inside the simulate calls; labelling belongs to the query.
    let (kernel_s, kernel_calls) = sum_s(&|s| s.starts_with("apps.") && s != "apps.label");
    let (ckpt_s, _) = sum_s(&|s| s.starts_with("ckpt."));
    let runtime_s = totals
        .get("core.run")
        .map_or(0.0, |t| t.self_ns as f64 / 1e9 / n);
    let wall = mean(traced.iter().map(|o| o.wall_s));
    let walls = |ops: &[OpOut]| median(&ops.iter().map(|o| o.wall_s).collect::<Vec<_>>());

    let first = &traced[0];
    let jobs = &first.jobs;
    let sum_jobs = |f: &dyn Fn(&bench::JobOut) -> f64| jobs.iter().map(f).sum::<f64>();
    let events = sum_jobs(&|j| j.metrics.sim_events as f64);
    let cores = bench.inputs.base.nodes[0].cpu.cores as f64;
    let cpu_cap = sum_jobs(&|j| j.metrics.cpu_stats.len() as f64 * cores * j.metrics.total_seconds);
    let gpu_cap = sum_jobs(&|j| {
        j.metrics.gpu_stats.iter().map(Vec::len).sum::<usize>() as f64 * j.metrics.total_seconds
    });
    let gpu_sum = |f: &dyn Fn(&device::gpu::GpuStats) -> f64| {
        sum_jobs(&|j| j.metrics.gpu_stats.iter().flatten().map(f).sum())
    };
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let stage = |f: &dyn Fn(&prs_core::StageTimes) -> f64| {
        sum_jobs(&|j| j.metrics.iterations.iter().map(f).sum())
    };
    let rec =
        |f: &dyn Fn(&prs_core::RecoveryCounters) -> f64| sum_jobs(&|j| f(&j.metrics.recovery));

    let observed = bench.workload == Workload::ObservedDynamic32;
    let counters = if observed {
        first.counters.clone()
    } else {
        probe.counters.clone()
    }
    .unwrap_or_default();
    let obs_out = first.obs.as_ref();
    let record_host_s = if observed {
        mean(traced.iter().flat_map(|o| o.jobs.iter().map(|j| j.sim_s)))
            - probe.jobs.iter().map(|j| j.sim_s).sum::<f64>()
    } else {
        0.0
    };

    let mut out = vec![
        m("simtime.events", events, "count"),
        m(
            "simtime.host_ns_per_event",
            (wall - kernel_s - ckpt_s) / events.max(1.0) * 1e9,
            "ns",
        ),
    ];
    let cpu: Vec<_> = traced.iter().filter_map(|o| o.cpu).collect();
    if cpu.len() == traced.len() {
        out.push(m(
            "simtime.sys_cpu_s",
            mean(cpu.iter().map(|c| c.sys_s)),
            "s",
        ));
        out.push(m(
            "simtime.user_cpu_s",
            mean(cpu.iter().map(|c| c.user_s)),
            "s",
        ));
    }
    out.extend([
        m("apps.kernel_s", kernel_s, "s"),
        m("apps.kernel_calls", kernel_calls, "count"),
        m("apps.kernel_share", frac(kernel_s, wall), "ratio"),
        m("data.gen_s", median(gen_s), "s"),
        m(
            "device.cpu_busy_frac",
            frac(
                sum_jobs(&|j| j.metrics.cpu_stats.iter().map(|s| s.core_busy).sum()),
                cpu_cap,
            ),
            "ratio",
        ),
        m(
            "device.gpu_compute_busy_frac",
            frac(gpu_sum(&|g| g.compute_busy), gpu_cap),
            "ratio",
        ),
        m(
            "device.gpu_copy_busy_frac",
            frac(gpu_sum(&|g| g.copy_busy), gpu_cap),
            "ratio",
        ),
        m(
            "device.pcie_bytes",
            gpu_sum(&|g| (g.bytes_h2d + g.bytes_d2h) as f64),
            "B",
        ),
        m(
            "device.cpu_map_tasks",
            sum_jobs(&|j| j.metrics.cpu_map_tasks as f64),
            "count",
        ),
        m(
            "device.gpu_map_tasks",
            sum_jobs(&|j| j.metrics.gpu_map_tasks as f64),
            "count",
        ),
        m(
            "roofline.cpu_fraction",
            median(&counters.cpu_fractions),
            "ratio",
        ),
        m(
            "roofline.map_pred_err",
            median(&counters.map_errors),
            "ratio",
        ),
        m("netsim.shuffle_s", stage(&|s| s.shuffle), "s"),
        m("netsim.net_bytes", counters.net_bytes, "B"),
        m("core.map_s", stage(&|s| s.map), "s"),
        m("core.reduce_s", stage(&|s| s.reduce), "s"),
        m("core.update_s", stage(&|s| s.update), "s"),
        m("core.block_wait_s", counters.block_wait_s, "s"),
        m("core.runtime_host_s", runtime_s, "s"),
        m("core.epochs", sum_jobs(&|j| j.epochs as f64), "count"),
        m("core.restores", rec(&|r| r.restores as f64), "count"),
        m(
            "core.checkpoints_written",
            rec(&|r| r.checkpoints_written as f64),
            "count",
        ),
        m("core.ckpt_bytes", sum_jobs(&|j| j.ckpt_bytes as f64), "B"),
        m("core.ckpt_host_s", ckpt_s, "s"),
        m(
            "core.seconds_lost_to_faults",
            rec(&|r| r.seconds_lost_to_faults),
            "s",
        ),
        m(
            "core.spec_launched",
            rec(&|r| r.speculative_launched as f64),
            "count",
        ),
        m(
            "core.spec_useful_frac",
            frac(
                rec(&|r| r.speculative_won as f64),
                rec(&|r| r.speculative_launched as f64),
            ),
            "ratio",
        ),
        m(
            "obs.events",
            obs_out
                .and_then(|o| o.answers.as_ref())
                .map_or(0.0, |a| a.events as f64),
            "count",
        ),
        m("obs.record_host_s", record_host_s, "s"),
        m("obs.export_s", span_s("obs.export"), "s"),
        m(
            "obs.bundle_bytes",
            obs_out.map_or(0.0, |o| o.bundle_bytes as f64),
            "B",
        ),
        m(
            "obs.recorder_peak_events",
            obs_out.map_or(0.0, |o| o.recorder_peak as f64),
            "count",
        ),
        m("obs.profile_s", span_s("obs.profile"), "s"),
        m("insight.parse_s", span_s("insight.parse"), "s"),
        m("insight.analyze_s", span_s("insight.analyze"), "s"),
        m("insight.postmortem_s", span_s("insight.postmortem"), "s"),
        m("watch.detect_s", span_s("watch.detect"), "s"),
        m(
            "watch.incidents",
            obs_out
                .and_then(|o| o.answers.as_ref())
                .map_or(0.0, |a| a.incidents as f64),
            "count",
        ),
        m("trace.overhead_s", walls(traced) - walls(untraced), "s"),
    ]);
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    // Every op must reproduce the first op's virtual results bit for bit.
    let reference_digest = report
        .ops
        .iter()
        .find(|o| o.failures.is_empty())
        .map(|o| o.digest);
    let mut failed = 0;
    for op in &report.ops {
        let mut cpu = op.cpu.map_or(String::new(), |c| {
            format!(" user_s {:.2} sys_s {:.2}", c.user_s, c.sys_s)
        });
        if let Some(st) = op.steal_s {
            cpu.push_str(&format!(" steal_s {st:.2}"));
        }
        println!(
            "op {} wall_s {} query_s {}{cpu} digest {:016x}",
            op.id, op.wall_s, op.query_s, op.digest
        );
        let mut failures = op.failures.clone();
        if failures.is_empty() && Some(op.digest) != reference_digest {
            failures.push(format!(
                "virtual digest {:016x} differs from the run's first op",
                op.digest
            ));
        }
        for f in &failures {
            eprintln!("op {} failed: {f}", op.id);
        }
        failed += usize::from(!failures.is_empty());
    }
    if let Some(op) = report.ops.first() {
        for (j, job) in op.jobs.iter().enumerate() {
            let r = &job.metrics.recovery;
            println!(
                "job {j} epochs {} restores {} node_crashes {} gpu_crashes {} spec_launched {} makespan_s {}",
                job.epochs, r.restores, r.node_crashes, r.gpu_daemon_crashes, r.speculative_launched, job.makespan
            );
        }
    }
    let attempted = report.ops.len();
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!("ops {attempted}");
    println!("ops_failed {failed}");
    println!("error_rate {}", failed as f64 / attempted as f64);
    match reference_digest {
        Some(d) => println!("digest {d:016x}"),
        None => println!("digest none"),
    }
    for (layer, s) in &report.layer_self_s {
        println!("self_s {layer} {s}");
    }
    let mut json = Vec::new();
    for metric in report.metrics.iter().filter(|x| x.value.is_finite()) {
        println!("{} {} {}", metric.name, metric.value, metric.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
