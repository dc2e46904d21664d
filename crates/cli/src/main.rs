//! `prs` — run the paper's SPMD applications on simulated GPU+CPU
//! clusters from the command line, and interrogate the analytic
//! scheduler.
//!
//! ```sh
//! prs run --app cmeans --nodes 4 --points 100000 --dims 64 --clusters 10
//! prs run --app gemv --mode gpu --timeline
//! prs advise --ai 12.5 --residency staged
//! prs profiles
//! ```

use device::{render_ascii, to_chrome_trace, to_chrome_trace_with_flows, FlowArrow};
use obs::rollup::{rollup, RollupConfig, RollupEvent};
use obs::{AuditLog, MetricsRegistry, Obs};
use prs_apps::{BatchFft, CMeans, CsrMatrix, DaKmeans, Dgemm, Gemv, Gmm, KMeans, Spmv, WordCount};
use prs_cli::{parse_kv, parse_profile, parse_residency, parse_run, AppKind, RunOptions};
use prs_core::{run_iterative_observed, run_job_observed, ClusterSpec, JobResult};
use prs_data::gaussian::clustering_workload;
use prs_data::matrix::MatrixF32;
use prs_data::rng::SplitMix64;
use roofline::model::DataResidency;
use roofline::schedule::{split_multi_gpu, Workload};
use std::sync::Arc;

/// Prints to stdout, exiting quietly when the pipe is closed (`prs | head`
/// must not panic).
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("advise") => cmd_advise(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("postmortem") => cmd_postmortem(&args[1..]),
        Some("profiles") => cmd_profiles(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_help();
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n");
            print_help();
            2
        }
    };
    std::process::exit(code);
}

fn print_help() {
    say!(
        "prs — co-process SPMD computation on simulated CPUs+GPUs clusters

USAGE:
  prs run [options]       run an application end to end
  prs sweep [options]     sweep static CPU fractions and compare with Eq (8)
  prs advise [options]    print the analytic scheduling decision (Eq 8-11)
  prs trace --dir <d>     summarize events.jsonl + decisions.jsonl from --obs
                          (--flows adds the cross-node message-flow summary)
  prs metrics --dir <d>   summarize metrics.prom from --obs
  prs analyze <d>         critical-path + blame analysis of an --obs dir;
                          writes report.json and critical_path.json into it
  prs watch <d>           run the health watchdog over an --obs dir: online
                          detectors + SLO burn-rate rules; writes
                          alerts.jsonl and incidents.jsonl into it
                          (--rules <toml> overrides the built-in SLO rules,
                          see docs/alerting.md)
  prs top <d>             live dashboard replaying an --obs dir in virtual
                          time; --snapshot <t> renders one deterministic
                          frame, --window <s> sets the gauge window,
                          --frames <n> the replay frame count; frames
                          include the watchdog's alert lane
  prs profile <d>         virtual-time sampling profile of an --obs dir:
                          folds the recorded stack frames at a fixed
                          virtual period into per-phase / per-node /
                          per-lane-class sample counts; --folded prints
                          collapsed-stack lines (flamegraph input),
                          --top <n> caps the hot-frame table (10),
                          --period <s> overrides the sample period
                          (see docs/profiling.md)
  prs diff <base> <cand>  differential regression attribution between
                          two --obs dirs: decomposes the virtual-makespan
                          delta into per-phase / per-node / per-blame
                          contributions and writes diff.json into the
                          candidate dir
  prs bench --all         run the fixed benchmark suite (including the
                          1000-node engine-throughput scenarios) and write
                          BENCH_prs.json (--check compares virtual
                          makespans, simulated-events/sec, and the engine
                          speedup floor against the committed baseline,
                          names the regressing phase and writes
                          BENCH_diff.json when a gate trips,
                          --out <file> overrides the output path)
  prs chaos [options]     sample seeded fault plans (node/master crashes,
                          stragglers, speculation) and assert the recovery
                          invariants; writes chaos_report.json
                          (--trials <n> (32), --seed <n> (7),
                          --out <file>, --json; --score-watch also scores
                          the health watchdog against the injected fault
                          plans and writes watch_score.json
                          (--watch-out <file>, --rules <toml>);
                          --record arms the bounded-memory flight recorder
                          per trial and writes incident captures +
                          postmortems under --record-out <dir>
                          (chaos_records);
                          --churn instead runs the elastic-membership grid
                          — seeded scale-out/drain/evict plans composed
                          with crashes through the elastic driver — and
                          writes churn_report.json)
  prs postmortem <d>      assemble the incident postmortem of a recorded
                          dir: joins capture-*.jsonl with incidents.jsonl,
                          decisions.jsonl and stacks.jsonl, writes
                          postmortem.json into <d> and prints the
                          human-readable report (see docs/postmortem.md)
  prs calibrate [options] fit a hardware profile from an --obs trace
  prs profiles            list the built-in fat-node hardware profiles
  prs help                this text

RUN OPTIONS (defaults in parentheses):
  --app <{apps}>   (cmeans)
  --nodes <n>                 cluster size (2)
  --profile <delta|bigred2|micro>   node hardware (delta)
  --profile-file <toml>       node hardware from a `prs calibrate` TOML
  --mode <static|static:<p>|dynamic:<block>|gpu|cpu>   (static)
  --calibrate <off|online|online:<alpha>>   online roofline recalibration:
                              re-fit the profile and re-solve Eq (8)
                              every iteration (off)
  --iterations <n>            iteration cap for iterative apps (10)
  --points / --dims / --clusters    workload shape (50000 / 32 / 8)
  --gpus <n>                  GPUs engaged per node (1)
  --streams <n>               CUDA streams per GPU (2)
  --blocks-per-core <n>       CPU blocks per core (4)
  --seed <n>                  RNG seed (42)
  --timeline                  print the execution Gantt chart
  --trace <file>              write a Chrome-tracing JSON file
  --obs <dir>                 write events.jsonl, metrics.prom,
                              decisions.jsonl, rollup.jsonl and a
                              flow-linked trace.json into <dir>
  --record                    arm the bounded-memory flight recorder:
                              retain a sliding virtual-time window of
                              events, fold evicted ones into rollup bins,
                              and capture the window around every incident
                              (with --obs the bundle gains capture-*.jsonl
                              and postmortem.json; without it the run
                              stays O(budget) in resident events)
  --record-window <s>         recorder retention window in virtual
                              seconds ({rec_window})
  --record-budget <n>         max resident recorder events ({rec_budget})
  --membership <toml>         run through the elastic driver with this
                              membership plan (scale-out / drain / evict
                              events in virtual time; app must be cmeans,
                              see docs/elasticity.md)
  --autoscale                 attach the hysteresis autoscaler (default
                              policy); composes with --membership
  --json                      machine-readable output

ADVISE OPTIONS:
  --ai <flops/byte>           arithmetic intensity (12.5)
  --residency <staged|resident>   GPU data residency (staged)
  --profile <delta|bigred2>   (delta)
  --gpus <n>                  (1)
  --from-trace <path>         instead of a hypothetical: report the
                              analytic model's predicted-vs-observed
                              error from a decisions.jsonl (or --obs dir)
                              (also accepts --profile-file <toml>)

CALIBRATE OPTIONS:
  --from-trace <path>         events.jsonl or an --obs dir (required)
  --out <file> / -o <file>    write the fitted profile TOML here
                              (default: print to stdout)
  --profile <delta|bigred2>   seed profile for the EWMA fit (delta)
  --alpha <a>                 EWMA smoothing factor in [0,1] ({alpha})",
        apps = AppKind::names().join("|"),
        alpha = insight::DEFAULT_ALPHA,
        rec_window = obs::RecorderConfig::enabled().window,
        rec_budget = obs::RecorderConfig::enabled().budget
    );
}

fn cmd_profiles() -> i32 {
    for p in [
        parse_profile("delta").unwrap(),
        parse_profile("bigred2").unwrap(),
        parse_profile("micro").unwrap(),
    ] {
        say!("{}:", p.name.to_lowercase());
        say!(
            "  CPU : {} — {} cores, {:.0} Gflop/s peak, {:.0} GB/s DRAM",
            p.cpu.model,
            p.cpu.cores,
            p.cpu.peak_flops / 1e9,
            p.cpu.dram_bw / 1e9
        );
        for (i, g) in p.gpus.iter().enumerate() {
            say!(
                "  GPU{i}: {} — {} cores, {:.0} Gflop/s peak, {:.0} GB/s DRAM, {:.2} GB/s eff PCI-E, {} GB",
                g.model,
                g.cores,
                g.peak_flops / 1e9,
                g.dram_bw / 1e9,
                g.pcie_eff_bw / 1e9,
                g.mem_bytes >> 30,
            );
        }
    }
    0
}

/// `prs sweep`: the paper's Table-5 profiling experiment for any app —
/// run a grid of static splits, report the empirical optimum next to the
/// analytic prediction.
fn cmd_sweep(args: &[String]) -> i32 {
    let mut opts = match parse_run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_help();
            return 2;
        }
    };
    let profile = match resolve_profile(&opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let spec = ClusterSpec::homogeneous(
        opts.nodes,
        profile.clone(),
        netsim::NetworkParams::infiniband_qdr(),
    );
    say!("sweeping static CPU fractions (0%..100%, step 10%) ...");
    let mut best = (f64::INFINITY, 0.0);
    for i in 0..=10 {
        let p = i as f64 / 10.0;
        opts.config.scheduling = prs_core::SchedulingMode::Static { p_override: Some(p) };
        match dispatch(&opts, &spec, Obs::disabled()) {
            Ok((m, _, _)) => {
                let t = m.compute_seconds;
                say!("  p = {:>3.0}%  ->  {:10.3} ms", p * 100.0, t * 1e3);
                if t < best.0 {
                    best = (t, p);
                }
            }
            Err(e) => {
                eprintln!("error at p = {p}: {e}");
                return 1;
            }
        }
    }
    // Analytic prediction for the same app: rebuild once in static mode.
    opts.config.scheduling = prs_core::SchedulingMode::Static { p_override: None };
    match dispatch(&opts, &spec, Obs::disabled()) {
        Ok((m, label, _)) => {
            let p_eq8 = m.cpu_fraction.unwrap_or(f64::NAN);
            say!(
                "\n{label}: empirical optimum p = {:.0}% ({:.3} ms); Equation (8) says {:.1}% ({:.3} ms)",
                best.1 * 100.0,
                best.0 * 1e3,
                p_eq8 * 100.0,
                m.compute_seconds * 1e3
            );
            say!(
                "analytic-vs-profiled error: {:.1} percentage points (paper's Table-5 bound: < 10)",
                (p_eq8 - best.1).abs() * 100.0
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    }
    0
}

fn cmd_advise(args: &[String]) -> i32 {
    // `--from-trace` switches advise from the hypothetical (given AI,
    // what split?) to the retrospective (how well did the model do?).
    if let Ok((kv, _)) = parse_kv(args) {
        if let Some(path) = kv.get("from-trace") {
            return advise_from_trace(path);
        }
    }
    let parsed = parse_kv(args).and_then(|(kv, flags)| {
        if !flags.is_empty() {
            return Err(format!("unknown flag --{}", flags[0]));
        }
        let ai: f64 = kv
            .get("ai")
            .map(|v| v.parse().map_err(|_| format!("bad --ai '{v}'")))
            .transpose()?
            .unwrap_or(12.5);
        let residency = kv
            .get("residency")
            .map(|v| parse_residency(v))
            .transpose()?
            .unwrap_or(DataResidency::Staged);
        let profile = match kv.get("profile-file") {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {path}: {e}"))?;
                insight::profile_toml::parse_device_profile(&text)
                    .map_err(|e| format!("{path}: {e}"))?
            }
            None => kv
                .get("profile")
                .map(|v| parse_profile(v))
                .transpose()?
                .unwrap_or_else(|| parse_profile("delta").unwrap()),
        };
        let gpus: usize = kv
            .get("gpus")
            .map(|v| v.parse().map_err(|_| format!("bad --gpus '{v}'")))
            .transpose()?
            .unwrap_or(1);
        if !(ai > 0.0 && ai.is_finite()) {
            return Err(format!("--ai must be a positive number, got {ai}"));
        }
        if gpus == 0 || gpus > profile.gpus.len() {
            return Err(format!(
                "--gpus must be 1..={} for profile '{}'",
                profile.gpus.len(),
                profile.name
            ));
        }
        Ok((ai, residency, profile, gpus))
    });
    let (ai, residency, profile, gpus) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let w = Workload::uniform(ai, residency);
    let d = split_multi_gpu(&profile, &w, gpus);
    say!("{} | AI = {ai} flops/byte, {residency:?}, {gpus} GPU(s)", profile.name);
    say!("  regime          : {:?}", d.regime);
    say!(
        "  ridge points    : A_cr = {:.2}, A_gr = {:.2}",
        profile.cpu_ridge(),
        profile.gpu_ridge(residency)
    );
    say!(
        "  Equation (8)    : {:.1}% CPU / {:.1}% GPU",
        d.cpu_fraction * 100.0,
        (1.0 - d.cpu_fraction) * 100.0
    );
    say!(
        "  predicted rates : CPU {:.1} Gflop/s, GPU {:.1} Gflop/s",
        d.cpu_flops / 1e9,
        d.gpu_flops / 1e9
    );
    0
}

/// Accepts either a `decisions.jsonl` file or an `--obs` output
/// directory containing one.
fn resolve_decisions_path(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        p.join("decisions.jsonl")
    } else {
        p.to_path_buf()
    }
}

/// `prs advise --from-trace`: replay an audit log and report the
/// roofline model's predicted-vs-observed error per decision.
fn advise_from_trace(path: &str) -> i32 {
    let file = resolve_decisions_path(path);
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {}: {e}", file.display());
            return 1;
        }
    };
    let recs = AuditLog::parse_jsonl(&text);
    if recs.is_empty() {
        eprintln!("no decisions found in {}", file.display());
        return 1;
    }
    say!(
        "{} audited decision(s) from {}",
        recs.len(),
        file.display()
    );
    say!("  iter node mode     trigger             p      pred_map_s   obs_map_s    err");
    let mut errs: Vec<f64> = Vec::new();
    for r in &recs {
        let (obs_s, err_s) = match (r.observed_map_secs, r.map_error()) {
            (Some(o), Some(e)) => {
                errs.push(e);
                (format!("{o:<12.6}"), format!("{:.1}%", e * 100.0))
            }
            _ => ("-".into(), "-".into()),
        };
        say!(
            "  {:>4} {:>4} {:<8} {:<18} {:>6.3} {:<12.6} {:<12} {}",
            r.iteration,
            r.node,
            r.mode,
            r.trigger,
            r.cpu_fraction,
            r.predicted_map_secs,
            obs_s,
            err_s
        );
    }
    if !errs.is_empty() {
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let worst = errs.iter().cloned().fold(0.0, f64::max);
        say!(
            "\nanalytic-model map-time error: mean {:.1}%, worst {:.1}% over {} completed decision(s)",
            mean * 100.0,
            worst * 100.0,
            errs.len()
        );
    }
    0
}

/// Reads the `--dir <d>` option the artifact commands share.
fn artifact_dir(args: &[String]) -> Result<String, String> {
    let (kv, flags) = parse_kv(args)?;
    if let Some(f) = flags.first() {
        return Err(format!("unknown flag --{f}"));
    }
    for k in kv.keys() {
        if k != "dir" {
            return Err(format!("unknown option --{k}"));
        }
    }
    kv.get("dir")
        .cloned()
        .ok_or_else(|| "missing --dir <obs output directory>".to_string())
}

/// `prs trace`: summarize `events.jsonl` and `decisions.jsonl`.
/// `--flows` adds the paired `msg-send`/`msg-recv` causal-edge summary.
fn cmd_trace(args: &[String]) -> i32 {
    let parsed = parse_kv(args).and_then(|(kv, flags)| {
        for f in &flags {
            if f != "flows" {
                return Err(format!("unknown flag --{f}"));
            }
        }
        for k in kv.keys() {
            if k != "dir" {
                return Err(format!("unknown option --{k}"));
            }
        }
        let dir = kv
            .get("dir")
            .cloned()
            .ok_or_else(|| "missing --dir <obs output directory>".to_string())?;
        Ok((dir, flags.iter().any(|f| f == "flows")))
    });
    let (dir, want_flows) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let events_path = std::path::Path::new(&dir).join("events.jsonl");
    let text = match std::fs::read_to_string(&events_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {}: {e}", events_path.display());
            return 1;
        }
    };
    let mut by_kind: std::collections::BTreeMap<String, (u64, f64)> =
        std::collections::BTreeMap::new();
    let mut t_max = 0.0f64;
    let mut total = 0u64;
    let mut recovery: Vec<(f64, String, String)> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(v) = serde_json::from_str(line) else {
            continue;
        };
        if v.get("schema").is_some() {
            continue; // exporter meta line, not an event
        }
        let kind = v["kind"].as_str().unwrap_or("?").to_string();
        let lane = v["lane"].as_str().unwrap_or("?").to_string();
        let t = v["t"].as_f64().unwrap_or(0.0);
        let dur = v["dur"].as_f64().unwrap_or(0.0);
        total += 1;
        t_max = t_max.max(t + dur);
        let e = by_kind.entry(kind.clone()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += dur;
        if matches!(
            kind.as_str(),
            "retry" | "reassign" | "gpu-crash" | "gpu-daemon-down" | "block-requeued"
        ) {
            recovery.push((t, kind, lane));
        }
    }
    if total == 0 {
        eprintln!(
            "error: no events found in {} — was the run recorded with --obs?",
            events_path.display()
        );
        return 1;
    }
    say!("{total} event(s) over {t_max:.6} virtual seconds ({})", events_path.display());
    say!("  kind                 count   busy_s");
    for (kind, (count, busy)) in &by_kind {
        say!("  {kind:<20} {count:>5}   {busy:.6}");
    }
    if recovery.is_empty() {
        say!("\nno recovery events: fault-free run");
    } else {
        say!("\n{} recovery event(s):", recovery.len());
        for (t, kind, lane) in &recovery {
            say!("  t={t:<12.6} {kind:<16} on {lane}");
        }
    }
    if want_flows {
        match read_trace_events(&dir) {
            Ok(events) => {
                let flows = insight::pair_flows(&events);
                if flows.is_empty() {
                    say!("\nno message flows (run recorded before flow tracing, or single node)");
                } else {
                    let bytes: f64 = flows.iter().map(|f| f.bytes).sum();
                    let mean_lat =
                        flows.iter().map(insight::Flow::latency).sum::<f64>() / flows.len() as f64;
                    say!(
                        "\n{} message flow(s), {bytes:.0} B total, mean latency {mean_lat:.6}s:",
                        flows.len()
                    );
                    // Aggregate by (src lane, dst lane) edge.
                    let mut edges: std::collections::BTreeMap<(String, String), (u64, f64, f64)> =
                        std::collections::BTreeMap::new();
                    for f in &flows {
                        let e = edges
                            .entry((f.src_lane.clone(), f.dst_lane.clone()))
                            .or_insert((0, 0.0, 0.0));
                        e.0 += 1;
                        e.1 += f.bytes;
                        e.2 += f.latency();
                    }
                    say!("  {:<14} -> {:<14} {:>6} {:>12} {:>12}", "src", "dst", "count", "bytes", "mean_lat_s");
                    for ((src, dst), (count, b, lat)) in &edges {
                        say!(
                            "  {src:<14} -> {dst:<14} {count:>6} {b:>12.0} {:>12.6}",
                            lat / *count as f64
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    // Decision summary: the iterations where the model was most wrong.
    let decisions = std::path::Path::new(&dir).join("decisions.jsonl");
    if let Ok(text) = std::fs::read_to_string(&decisions) {
        let mut recs = AuditLog::parse_jsonl(&text);
        recs.retain(|r| r.map_error().is_some());
        if !recs.is_empty() {
            recs.sort_by(|a, b| {
                b.map_error()
                    .unwrap_or(0.0)
                    .total_cmp(&a.map_error().unwrap_or(0.0))
            });
            say!("\nmost divergent scheduling decisions (predicted vs observed map time):");
            for r in recs.iter().take(5) {
                say!(
                    "  iter {:>3} node {:>2} [{}]: p = {:.3}, predicted {:.6}s, observed {:.6}s ({:+.1}%)",
                    r.iteration,
                    r.node,
                    r.regime,
                    r.cpu_fraction,
                    r.predicted_map_secs,
                    r.observed_map_secs.unwrap_or(0.0),
                    r.map_error().unwrap_or(0.0) * 100.0
                );
            }
        }
    }
    0
}

/// `prs metrics`: summarize `metrics.prom`.
fn cmd_metrics(args: &[String]) -> i32 {
    let dir = match artifact_dir(args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let path = std::path::Path::new(&dir).join("metrics.prom");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {}: {e}", path.display());
            return 1;
        }
    };
    let samples = MetricsRegistry::parse_samples(&text);
    if samples.is_empty() {
        eprintln!("no samples found in {}", path.display());
        return 1;
    }
    let pick = |prefix: &str| -> Vec<(String, f64)> {
        samples
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .cloned()
            .collect()
    };
    let job: Vec<(&str, &str)> = vec![
        ("prs_total_seconds", "total virtual seconds"),
        ("prs_setup_seconds", "setup seconds"),
        ("prs_compute_seconds", "compute seconds"),
        ("prs_iterations", "iterations"),
        ("prs_seconds_lost_to_faults", "seconds lost to faults"),
    ];
    say!("job ({}):", path.display());
    for (key, label) in job {
        if let Some((_, v)) = samples.iter().find(|(k, _)| k == key) {
            say!("  {label:<24} {v}");
        }
    }
    let util = pick("prs_device_utilization");
    if !util.is_empty() {
        say!("\ndevice utilization:");
        for (k, v) in &util {
            let dev = k
                .split("device=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .unwrap_or(k);
            say!("  {dev:<16} {:>6.1}%", v * 100.0);
        }
    }
    for (prefix, title) in [
        ("prs_bytes_moved_total", "bytes moved (PCI-E)"),
        ("prs_net_bytes_total", "bytes sent (network)"),
        ("prs_map_tasks_total", "map tasks"),
        ("prs_recovery_total", "recovery actions"),
        ("prs_queue_depth_peak", "peak queue depth"),
    ] {
        let rows = pick(prefix);
        if rows.is_empty() {
            continue;
        }
        say!("\n{title}:");
        for (k, v) in &rows {
            let label = k.strip_prefix(prefix).unwrap_or(k);
            say!("  {label:<40} {v}");
        }
    }
    0
}

/// Reads `events.jsonl` from a path that is either the file itself or an
/// `--obs` output directory containing one.
fn read_trace_events(path: &str) -> Result<Vec<insight::TraceEvent>, String> {
    let p = std::path::Path::new(path);
    let file = if p.is_dir() { p.join("events.jsonl") } else { p.to_path_buf() };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("reading {}: {e}", file.display()))?;
    let events = insight::parse_events_jsonl(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    if events.is_empty() {
        return Err(format!("no events found in {}", file.display()));
    }
    Ok(events)
}

/// `prs analyze`: critical-path + blame analysis of an `--obs` bundle.
/// Writes deterministic `report.json` and `critical_path.json` next to
/// the events and prints the per-iteration summary table.
fn cmd_analyze(args: &[String]) -> i32 {
    // Accept the directory as a positional argument or as `--dir`.
    let dir = if let Some(first) = args.first().filter(|a| !a.starts_with("--")) {
        if args.len() > 1 {
            eprintln!("error: unexpected argument '{}'", args[1]);
            return 2;
        }
        first.clone()
    } else {
        match artifact_dir(args) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    };
    let events = match read_trace_events(&dir) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let analysis = insight::analyze(&events);
    if analysis.iterations.is_empty() {
        eprintln!(
            "no iteration spans found in {dir}: was the run recorded with --obs?"
        );
        return 1;
    }
    let out_dir = {
        let p = std::path::Path::new(&dir);
        if p.is_dir() { p.to_path_buf() } else { p.parent().unwrap_or(p).to_path_buf() }
    };
    for (name, content) in [
        ("report.json", insight::report_json(&analysis)),
        ("critical_path.json", insight::critical_path_json(&analysis)),
    ] {
        let path = out_dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("error writing {}: {e}", path.display());
            return 1;
        }
    }
    say!("{}", insight::summary_table(&analysis));
    eprintln!(
        "analysis written to {}/report.json and {}/critical_path.json",
        out_dir.display(),
        out_dir.display()
    );
    0
}

/// `prs watch`: run the health watchdog offline over a recorded `--obs`
/// bundle, write `alerts.jsonl` + `incidents.jsonl` next to the events,
/// and print the incident summary.
fn cmd_watch(args: &[String]) -> i32 {
    // Accept the directory as a positional argument or as `--dir`.
    let parsed = (|| -> Result<(String, Option<String>), String> {
        let (positional, rest) = match args.first() {
            Some(a) if !a.starts_with("--") => (Some(a.clone()), &args[1..]),
            _ => (None, args),
        };
        let (kv, flags) = parse_kv(rest)?;
        if let Some(f) = flags.first() {
            return Err(format!("unknown flag --{f}"));
        }
        for k in kv.keys() {
            if !["dir", "rules"].contains(&k.as_str()) {
                return Err(format!("unknown option --{k}"));
            }
        }
        let dir = positional
            .or_else(|| kv.get("dir").cloned())
            .ok_or_else(|| "missing --dir <obs output directory>".to_string())?;
        Ok((dir, kv.get("rules").cloned()))
    })();
    let (dir, rules_path) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let cfg = match &rules_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error reading {path}: {e}");
                    return 1;
                }
            };
            match watch::WatchConfig::from_toml(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return 2;
                }
            }
        }
        None => watch::WatchConfig::default(),
    };
    let events = match read_trace_events(&dir) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let out_dir = {
        let p = std::path::Path::new(&dir);
        if p.is_dir() { p.to_path_buf() } else { p.parent().unwrap_or(p).to_path_buf() }
    };
    let decisions = std::fs::read_to_string(out_dir.join("decisions.jsonl"))
        .map(|t| AuditLog::parse_jsonl(&t))
        .unwrap_or_default();
    let roll_events: Vec<RollupEvent> = events
        .iter()
        .map(|e| RollupEvent {
            t: e.t,
            dur: e.dur,
            lane: e.lane.clone(),
            kind: e.kind.clone(),
            iter: e.iter,
            attrs: e.attrs.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        })
        .collect();
    let out = watch::watch(&roll_events, &decisions, &cfg);
    for (name, content) in [
        ("alerts.jsonl", out.alerts_jsonl()),
        ("incidents.jsonl", out.incidents_jsonl()),
    ] {
        let path = out_dir.join(name);
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("error writing {}: {e}", path.display());
            return 1;
        }
    }
    if out.alerts.is_empty() {
        say!("healthy: no alerts fired over {} event(s)", events.len());
    } else {
        say!(
            "{} alert(s), {} incident(s) over {} event(s):",
            out.alerts.len(),
            out.incidents.len(),
            events.len()
        );
        for inc in &out.incidents {
            let nodes = if inc.nodes.is_empty() {
                "cluster".to_string()
            } else {
                inc.nodes
                    .iter()
                    .map(|n| format!("node{n}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            say!(
                "  #{} [{}] t={:.6}..{:.6} detect={:.6} {} on {} ({} alert(s), {})",
                inc.id,
                inc.severity.as_str(),
                inc.t_start,
                inc.t_end,
                inc.t_detect,
                inc.kind.as_str(),
                nodes,
                inc.alerts.len(),
                inc.blame.as_str()
            );
        }
    }
    eprintln!(
        "watch artifacts written to {}/alerts.jsonl and {}/incidents.jsonl",
        out_dir.display(),
        out_dir.display()
    );
    0
}

/// `prs calibrate`: EWMA-fit a hardware profile from a recorded trace
/// and persist it as TOML (`--profile-file` loads it back).
fn cmd_calibrate(args: &[String]) -> i32 {
    // parse_kv only knows `--key`; accept the conventional `-o` too.
    let args: Vec<String> = args
        .iter()
        .map(|a| if a == "-o" { "--out".to_string() } else { a.clone() })
        .collect();
    let parsed = parse_kv(&args).and_then(|(kv, flags)| {
        if let Some(f) = flags.first() {
            return Err(format!("unknown flag --{f}"));
        }
        for k in kv.keys() {
            if !["from-trace", "out", "profile", "alpha"].contains(&k.as_str()) {
                return Err(format!("unknown option --{k}"));
            }
        }
        let trace = kv
            .get("from-trace")
            .cloned()
            .ok_or_else(|| "missing --from-trace <events.jsonl or --obs dir>".to_string())?;
        let base = kv
            .get("profile")
            .map(|v| parse_profile(v))
            .transpose()?
            .unwrap_or_else(|| parse_profile("delta").unwrap());
        let alpha: f64 = kv
            .get("alpha")
            .map(|v| v.parse().map_err(|_| format!("bad --alpha '{v}'")))
            .transpose()?
            .unwrap_or(insight::DEFAULT_ALPHA);
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
            return Err(format!("--alpha {alpha} out of [0,1]"));
        }
        Ok((trace, kv.get("out").cloned(), base, alpha))
    });
    let (trace, out, base, alpha) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let events = match read_trace_events(&trace) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let cal = insight::fit_from_events(base, alpha, &events);
    let counts = cal.samples;
    if cal.total_samples() == 0 {
        eprintln!(
            "warning: no compute or transfer spans in the trace; \
             the fitted profile equals the '{}' seed",
            cal.profile().name
        );
    }
    let toml = insight::profile_toml::to_toml(&cal);
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &toml) {
                eprintln!("error writing {path}: {e}");
                return 1;
            }
            eprintln!(
                "fitted profile written to {path} ({} cpu / {} gpu / {} pcie / {} net samples); \
                 load it with --profile-file",
                counts.cpu, counts.gpu, counts.pcie, counts.net
            );
        }
        None => say!("{toml}"),
    }
    0
}

/// `prs top`: terminal dashboard over an `--obs` bundle, replayed in
/// virtual time. `--snapshot <t>` renders exactly one frame (the mode
/// the determinism tests pin); without it the replay renders `--frames`
/// evenly spaced instants up to the trace horizon.
fn cmd_top(args: &[String]) -> i32 {
    let parsed = (|| -> Result<(String, Option<f64>, Option<f64>, usize), String> {
        let (positional, rest) = match args.first() {
            Some(a) if !a.starts_with("--") => (Some(a.clone()), &args[1..]),
            _ => (None, args),
        };
        let (kv, flags) = parse_kv(rest)?;
        if let Some(f) = flags.first() {
            return Err(format!("unknown flag --{f}"));
        }
        for k in kv.keys() {
            if !["dir", "snapshot", "window", "frames"].contains(&k.as_str()) {
                return Err(format!("unknown option --{k}"));
            }
        }
        let dir = positional
            .or_else(|| kv.get("dir").cloned())
            .ok_or_else(|| "missing <obs output directory>".to_string())?;
        let num = |key: &str| -> Result<Option<f64>, String> {
            kv.get(key)
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad --{key} '{v}'")))
                .transpose()
        };
        let frames: usize = kv
            .get("frames")
            .map(|v| v.parse().map_err(|_| format!("bad --frames '{v}'")))
            .transpose()?
            .unwrap_or(8);
        if frames == 0 {
            return Err("--frames must be at least 1".to_string());
        }
        Ok((dir, num("snapshot")?, num("window")?, frames))
    })();
    let (dir, snapshot, window, frames) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let events = match read_trace_events(&dir) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let decisions = std::fs::read_to_string(resolve_decisions_path(&dir))
        .map(|t| AuditLog::parse_jsonl(&t))
        .unwrap_or_default();
    // Incident→capture links from a `--record`'ed bundle, marking
    // captured incidents in the alert lane.
    let captures: std::collections::BTreeMap<u64, String> =
        std::fs::read_to_string(std::path::Path::new(&dir).join("incidents.jsonl"))
            .map(|text| {
                text.lines()
                    .filter_map(|l| serde_json::from_str(l).ok())
                    .filter_map(|v: serde_json::Value| {
                        let o = v.as_object()?;
                        Some((
                            o.get("id").and_then(serde_json::Value::as_u64)?,
                            o.get("capture")?.as_str()?.to_string(),
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
    let horizon = events.iter().map(|e| e.end()).fold(0.0, f64::max);
    let window = window.unwrap_or_else(|| (horizon / 8.0).max(1e-9));
    let frame_at =
        |t: f64| prs_cli::top::render_frame_with_captures(&events, &decisions, &captures, t, window);
    match snapshot {
        Some(t) => say!("{}", frame_at(t)),
        None => {
            for i in 1..=frames {
                let t = horizon * i as f64 / frames as f64;
                say!("{}", "─".repeat(72));
                say!("{}", frame_at(t));
            }
        }
    }
    0
}

/// The fixed, seeded benchmark suite behind `prs bench --all`: the same
/// scenarios every run, so their virtual makespans are bit-reproducible
/// and regressions are diffable. Wall-clock medians are reported for
/// context but never gated on.
/// Loads the profiler's frame set from an `--obs` bundle: `stacks.jsonl`
/// when present, otherwise reconstructed from `events.jsonl` span events
/// (bundles recorded before stack recording existed still profile).
/// Returns the frames plus the bundle's event horizon in virtual seconds.
fn load_frame_set(dir: &str) -> Result<(obs::FrameSet, f64), String> {
    let p = std::path::Path::new(dir);
    let stacks = if p.is_dir() { p.join("stacks.jsonl") } else { p.to_path_buf() };
    if let Ok(text) = std::fs::read_to_string(&stacks) {
        let set = obs::FrameSet::parse_stacks_jsonl(&text)
            .map_err(|e| format!("{}: {e}", stacks.display()))?;
        if !set.is_empty() {
            // The sampling horizon still comes from the full event
            // stream so trailing span-less time is counted.
            let horizon = read_trace_events(dir)
                .map(|ev| ev.iter().map(insight::TraceEvent::end).fold(0.0, f64::max))
                .unwrap_or_else(|_| set.horizon());
            return Ok((set, horizon));
        }
    }
    let events = read_trace_events(dir)?;
    let horizon = events.iter().map(insight::TraceEvent::end).fold(0.0, f64::max);
    let frames: Vec<obs::Frame> = events
        .iter()
        .filter(|e| e.dur.is_some())
        .map(|e| obs::Frame {
            lane: e.lane.clone(),
            frame: e.kind.clone(),
            t0: e.t,
            t1: e.end(),
        })
        .collect();
    let set = obs::FrameSet::from_frames(frames);
    if set.is_empty() {
        return Err(format!("no stack frames found in {dir} — was the run recorded with --obs?"));
    }
    Ok((set, horizon))
}

/// `prs profile <dir> [--folded] [--top <n>] [--period <s>]`: fold the
/// recorded stack frames at a fixed virtual sampling period and print
/// the per-phase / per-node / hot-frame summary (or the collapsed-stack
/// lines with `--folded`).
fn cmd_profile(args: &[String]) -> i32 {
    let parsed = (|| -> Result<(String, bool, usize, f64), String> {
        let (positional, rest) = match args.first() {
            Some(a) if !a.starts_with("--") => (Some(a.clone()), &args[1..]),
            _ => (None, args),
        };
        let (kv, flags) = parse_kv(rest)?;
        for f in &flags {
            if f != "folded" {
                return Err(format!("unknown flag --{f}"));
            }
        }
        for k in kv.keys() {
            if !["dir", "top", "period"].contains(&k.as_str()) {
                return Err(format!("unknown option --{k}"));
            }
        }
        let dir = positional
            .or_else(|| kv.get("dir").cloned())
            .ok_or_else(|| "missing --dir <obs output directory>".to_string())?;
        let top = match kv.get("top") {
            Some(v) => v.parse::<usize>().map_err(|_| format!("--top {v}: not an integer"))?,
            None => 10,
        };
        let period = match kv.get("period") {
            Some(v) => {
                let p = v.parse::<f64>().map_err(|_| format!("--period {v}: not a number"))?;
                if p <= 0.0 {
                    return Err(format!("--period {v}: must be positive"));
                }
                p
            }
            None => obs::profile::DEFAULT_PERIOD_S,
        };
        Ok((dir, flags.iter().any(|f| f == "folded"), top, period))
    })();
    let (dir, folded, top, period) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let (set, horizon) = match load_frame_set(&dir) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let prof = obs::profile(&set, horizon, period);
    if folded {
        say!("{}", prof.to_folded().trim_end());
        return 0;
    }
    say!(
        "{} sample(s) at {:.0} ns virtual period over {:.6} s ({} frames, {} lanes)",
        prof.samples,
        prof.period_s * 1e9,
        prof.horizon_s,
        set.frames().len(),
        prof.lanes.len()
    );
    say!("\nphases (virtual-time samples):");
    say!("  {:<10} {:>9} {:>7}   by lane class", "phase", "samples", "share");
    for (phase, pp) in &prof.phases {
        let share = if prof.samples > 0 {
            100.0 * pp.samples as f64 / prof.samples as f64
        } else {
            0.0
        };
        let classes: Vec<String> =
            pp.by_class.iter().map(|(c, n)| format!("{c}:{n}")).collect();
        say!("  {phase:<10} {:>9} {share:>6.1}%   {}", pp.samples, classes.join(" "));
    }
    say!("\nhot frames (self samples):");
    say!("  {:<16} {:>9} {:>9}", "frame", "self", "total");
    for (name, fp) in prof.ranked_frames().into_iter().take(top) {
        say!("  {name:<16} {:>9} {:>9}", fp.self_samples, fp.total_samples);
    }
    0
}

/// `prs diff <baseline> <candidate>`: attribute the virtual-makespan
/// delta between two `--obs` bundles. Writes `diff.json` into the
/// candidate directory and prints the decomposition table.
fn cmd_diff(args: &[String]) -> i32 {
    let parsed = (|| -> Result<(String, String), String> {
        let positionals: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
        if args.len() != positionals.len() {
            let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
            return Err(format!("unknown flag {flag}"));
        }
        match positionals.as_slice() {
            [base, cand] => Ok(((*base).clone(), (*cand).clone())),
            _ => Err("usage: prs diff <baseline obs dir> <candidate obs dir>".to_string()),
        }
    })();
    let (base_dir, cand_dir) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let (base_events, cand_events) =
        match (read_trace_events(&base_dir), read_trace_events(&cand_dir)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
    let d = insight::diff_events(&base_events, &cand_events);
    let out_dir = {
        let p = std::path::Path::new(&cand_dir);
        if p.is_dir() { p.to_path_buf() } else { p.parent().unwrap_or(p).to_path_buf() }
    };
    let path = out_dir.join("diff.json");
    if let Err(e) = std::fs::write(&path, d.to_json()) {
        eprintln!("error writing {}: {e}", path.display());
        return 1;
    }
    say!("{}", d.table().trim_end());
    eprintln!("diff written to {}", path.display());
    0
}

fn bench_suite() -> Vec<(&'static str, RunOptions)> {
    let base = RunOptions::default();
    let mut cmeans_static = base.clone();
    cmeans_static.app = AppKind::Cmeans;
    cmeans_static.nodes = 2;
    cmeans_static.points = 20_000;
    cmeans_static.config = prs_core::JobConfig::static_analytic().with_iterations(3);
    let mut cmeans_dynamic = base.clone();
    cmeans_dynamic.app = AppKind::Cmeans;
    cmeans_dynamic.nodes = 4;
    cmeans_dynamic.points = 20_000;
    cmeans_dynamic.config = prs_core::JobConfig::dynamic(2000).with_iterations(3);
    let mut kmeans_static = base.clone();
    kmeans_static.app = AppKind::Kmeans;
    kmeans_static.nodes = 2;
    kmeans_static.points = 20_000;
    kmeans_static.config = prs_core::JobConfig::static_analytic().with_iterations(3);
    let mut gemv_gpu = base.clone();
    gemv_gpu.app = AppKind::Gemv;
    gemv_gpu.nodes = 2;
    gemv_gpu.points = 4_000;
    gemv_gpu.dims = 512;
    let mut wordcount = base;
    wordcount.app = AppKind::Wordcount;
    wordcount.nodes = 2;
    wordcount.points = 50_000;
    // Names ending in `_ckpt` run through the resilient driver with
    // per-iteration checkpointing armed (no faults), and `--check` holds
    // them to a tighter 5% makespan envelope: checkpoint writes are
    // host-only and must stay off the virtual clock.
    let mut cmeans_ckpt = cmeans_static.clone();
    cmeans_ckpt.config = cmeans_ckpt.config.with_checkpoint_interval(1);
    // Names ending in `_elastic` route through the elastic membership
    // driver with an *empty* plan: contractually bit-identical to the
    // fixed-cluster run (docs/elasticity.md), so it shares `_ckpt`'s
    // tighter envelope and any drift is membership-plumbing cost leaking
    // onto the virtual clock.
    let mut cmeans_elastic = cmeans_static.clone();
    cmeans_elastic.config = cmeans_elastic.config.with_checkpoint_interval(1);
    // The cluster-scale scenario: 1000 micro nodes, one iteration. Sized so every node gets a few map blocks;
    // what the entry really measures is engine throughput (sim events per
    // wall second) at the paper's target scale.
    let cmeans_1000 = RunOptions {
        app: AppKind::Cmeans,
        nodes: 1000,
        profile: "micro".to_string(),
        points: 20_000,
        dims: 8,
        config: prs_core::JobConfig::static_analytic()
            .with_iterations(1)
            .with_streams(1),
        ..Default::default()
    };
    // Ten times the cluster at the same points per node: ~40k simulation
    // processes, affordable because each one is a task, not an OS thread.
    let cmeans_10000 = RunOptions {
        nodes: 10_000,
        points: 200_000,
        ..cmeans_1000.clone()
    };
    vec![
        ("cmeans_static_2node", cmeans_static),
        ("cmeans_dynamic_4node", cmeans_dynamic),
        ("kmeans_static_2node", kmeans_static),
        ("gemv_2node", gemv_gpu),
        ("wordcount_2node", wordcount),
        ("cmeans_2node_ckpt", cmeans_ckpt),
        ("cmeans_2node_elastic", cmeans_elastic),
        ("cmeans_1000node", cmeans_1000),
        ("cmeans_10000node", cmeans_10000),
    ]
}

/// Floor on `speedup_vs_task_hold`, the synthetic's events/sec over
/// task-hold events/sec. The ratio is below 1: the synthetic keeps a
/// million timers resident (cache-bound), task holds keep 2000. Derived
/// from 12 alternating best-of-3 measurements on a 2-core x86-64
/// container (median 0.174, minimum 0.141): the minimum over 1.1,
/// rounded down. That is 0.69 of the median, where the floor it replaces
/// (10.6 over the thread-handoff path) was 0.64 of its median.
const SPEEDUP_FLOOR: f64 = 0.12;

/// Shape of the task-hold run behind `speedup_vs_task_hold` and the
/// machine-speed calibration: ~2M events, a few tenths of a second at a
/// few hundred nanoseconds per event, so one run is long enough to time.
const TASK_HOLD_PROCS: usize = 2000;
const TASK_HOLD_ROUNDS: usize = 1000;

/// One `prs bench` result row. `events_per_sec` and `speedup_vs_task_hold`
/// are only present on the engine-throughput entries; virtual quantities
/// are bit-reproducible, wall-derived ones are gated loosely.
/// `task_hold_eps` records the same-run process-hold throughput — the
/// machine-speed calibration the `--check` envelope divides out, so the
/// events/sec gate measures the engine, not the host it ran on.
struct BenchRow {
    name: &'static str,
    median_ns: u128,
    iters: usize,
    virtual_makespan: f64,
    events_per_sec: Option<f64>,
    speedup_vs_task_hold: Option<f64>,
    task_hold_eps: Option<f64>,
    /// Virtual seconds per phase (`setup` + the four stage sums from
    /// [`prs_core::JobMetrics`]); absent on the synthetic engine row.
    /// `--check` uses the committed values to name the regressing phase.
    phases: Option<std::collections::BTreeMap<&'static str, f64>>,
}

/// Per-phase virtual-seconds breakdown of a run, derived from
/// [`prs_core::JobMetrics`] alone (no obs attachment, so bench timing
/// loops stay unobserved).
fn phase_breakdown(m: &prs_core::JobMetrics) -> std::collections::BTreeMap<&'static str, f64> {
    let mut out = std::collections::BTreeMap::new();
    out.insert("setup", m.setup_seconds);
    out.insert("map", m.iterations.iter().map(|s| s.map).sum());
    out.insert("shuffle", m.iterations.iter().map(|s| s.shuffle).sum());
    out.insert("reduce", m.iterations.iter().map(|s| s.reduce).sum());
    out.insert("update", m.iterations.iter().map(|s| s.update).sum());
    out
}

/// The synthetic engine-throughput entry: the 1000-node / 2M-event timer
/// stress, with the speedup ratio of timers over process tasks that
/// `hold()` (one task poll per event).
/// Both sides take the best of three runs: co-tenant load only ever
/// slows a run down, so peak throughput is the noise-robust statistic
/// for a wall-clock gate.
fn engine_synthetic_row() -> BenchRow {
    use simtime::stress::{run_stress, run_task_holds, StressSpec};
    const REPS: usize = 3;
    let spec = StressSpec::thousand_node();
    let mut events_per_sec = 0.0f64;
    let mut best_wall = std::time::Duration::MAX;
    let mut end_time = simtime::SimTime::ZERO;
    for _ in 0..REPS {
        let t0 = std::time::Instant::now();
        let (events, end) = run_stress(spec);
        let wall = t0.elapsed();
        events_per_sec = events_per_sec.max(events as f64 / wall.as_secs_f64().max(1e-9));
        best_wall = best_wall.min(wall);
        end_time = end;
    }

    let mut hold_eps = 0.0f64;
    for _ in 0..REPS {
        let t1 = std::time::Instant::now();
        let hold_events = run_task_holds(TASK_HOLD_PROCS, TASK_HOLD_ROUNDS);
        hold_eps = hold_eps.max(hold_events as f64 / t1.elapsed().as_secs_f64().max(1e-9));
    }

    BenchRow {
        name: "engine_1000node_synthetic",
        median_ns: best_wall.as_nanos(),
        iters: REPS,
        virtual_makespan: end_time.as_secs_f64(),
        events_per_sec: Some(events_per_sec),
        speedup_vs_task_hold: Some(events_per_sec / hold_eps.max(1e-9)),
        task_hold_eps: Some(hold_eps),
        phases: None,
    }
}

/// `prs bench --all [--check] [--out <file>]`: run the fixed suite,
/// write `BENCH_prs.json`, and with `--check` fail (exit 1) when any
/// scenario's virtual makespan regressed more than 10% against the
/// committed baseline.
fn cmd_bench(args: &[String]) -> i32 {
    let parsed = parse_kv(args).and_then(|(kv, flags)| {
        for f in &flags {
            if !["all", "check"].contains(&f.as_str()) {
                return Err(format!("unknown flag --{f}"));
            }
        }
        for k in kv.keys() {
            if k != "out" {
                return Err(format!("unknown option --{k}"));
            }
        }
        if !flags.iter().any(|f| f == "all") {
            return Err("prs bench requires --all (the fixed suite)".to_string());
        }
        Ok((
            flags.iter().any(|f| f == "check"),
            kv.get("out").cloned().unwrap_or_else(|| "BENCH_prs.json".to_string()),
        ))
    });
    let (check, out_path) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    const ITERS: usize = 5;
    let mut entries: Vec<BenchRow> = Vec::new();
    for (name, opts) in bench_suite() {
        let profile = match resolve_profile(&opts) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        let spec = ClusterSpec::homogeneous(
            opts.nodes,
            profile,
            netsim::NetworkParams::infiniband_qdr(),
        );
        // Cluster-scale scenarios take seconds per run: three iterations
        // (one at 10k nodes) bound the suite's wall time while still
        // giving the throughput gate a best-of-N to shrug off co-tenant
        // noise.
        let iters = match opts.nodes {
            10_000.. => 1,
            100.. => 3,
            _ => ITERS,
        };
        let mut wall_ns: Vec<u128> = Vec::with_capacity(iters);
        let mut makespan = 0.0f64;
        let mut sim_events = 0u64;
        let mut phases = std::collections::BTreeMap::new();
        let mut best_wall_s = f64::MAX;
        for _ in 0..iters {
            let t0 = std::time::Instant::now();
            let outcome = if name.ends_with("_ckpt") {
                run_checkpointed_bench(&opts, &spec)
            } else if name.ends_with("_elastic") {
                run_elastic_bench(&opts, &spec)
            } else {
                dispatch(&opts, &spec, Obs::disabled())
                    .map(|(m, _, _)| (m.total_seconds, m.sim_events, phase_breakdown(&m)))
            };
            match outcome {
                Ok((m, ev, ph)) => {
                    makespan = m;
                    sim_events = ev;
                    phases = ph;
                }
                Err(e) => {
                    eprintln!("error in bench '{name}': {e}");
                    return 1;
                }
            }
            let wall = t0.elapsed();
            best_wall_s = best_wall_s.min(wall.as_secs_f64());
            wall_ns.push(wall.as_nanos());
        }
        wall_ns.sort_unstable();
        let median_ns = wall_ns[iters / 2];
        // Engine throughput only means something once the run is big
        // enough to swamp setup; report it for the cluster-scale entry,
        // from the fastest iteration (noise only ever slows a run).
        let events_per_sec =
            (opts.nodes >= 100).then(|| sim_events as f64 / best_wall_s.max(1e-9));
        match events_per_sec {
            Some(eps) => say!(
                "{name:<24} median {:>10.3} ms wall, {makespan:.6} s virtual, {:.0} ev/s ({sim_events} events)",
                median_ns as f64 / 1e6,
                eps
            ),
            None => say!(
                "{name:<24} median {:>10.3} ms wall, {makespan:.6} s virtual",
                median_ns as f64 / 1e6
            ),
        }
        entries.push(BenchRow {
            name,
            median_ns,
            iters,
            virtual_makespan: makespan,
            events_per_sec,
            speedup_vs_task_hold: None,
            task_hold_eps: None,
            phases: Some(phases),
        });
    }
    let row = engine_synthetic_row();
    say!(
        "{:<24} median {:>10.3} ms wall, {:.6} s virtual, {:.0} ev/s ({:.2}x vs task holds)",
        row.name,
        row.median_ns as f64 / 1e6,
        row.virtual_makespan,
        row.events_per_sec.unwrap_or(0.0),
        row.speedup_vs_task_hold.unwrap_or(0.0)
    );
    entries.push(row);
    if check {
        match std::fs::read_to_string(&out_path) {
            Ok(text) => {
                let Ok(doc) = serde_json::from_str(&text) else {
                    eprintln!("error: {out_path} is not valid JSON");
                    return 1;
                };
                let mut regressed = false;
                // Per-entry phase deltas for every tripped makespan gate;
                // written to BENCH_diff.json so a red CI run names its
                // suspect without a rerun.
                let mut diff_entries: Vec<serde_json::Value> = Vec::new();
                // Machine-speed calibration for the wall-derived gates:
                // task-hold throughput is measured fresh in this process,
                // so the ratio of committed-to-measured task-hold throughput
                // says how much faster/slower this host is than the one
                // that wrote the baseline. Envelopes scale by it; on the
                // baseline host itself the scale is ~1 and the check is
                // the plain 10% envelope.
                let machine_scale = entries
                    .iter()
                    .find_map(|r| r.task_hold_eps)
                    .and_then(|measured| {
                        let committed = doc["entries"].as_array().and_then(|a| {
                            a.iter()
                                .find_map(|e| e["task_hold_events_per_sec"].as_f64())
                        })?;
                        Some(measured / committed.max(1e-9))
                    })
                    .unwrap_or(1.0);
                for row in &entries {
                    let name = row.name;
                    let fresh = row.virtual_makespan;
                    let baseline_entry = doc["entries"]
                        .as_array()
                        .and_then(|a| a.iter().find(|e| e["bench"].as_str() == Some(name)));
                    let baseline =
                        baseline_entry.and_then(|e| e["virtual_makespan"].as_f64());
                    // Checkpoint-enabled scenarios get a tighter envelope:
                    // store writes are host-only, so their virtual makespan
                    // must track the baseline closely.
                    let tolerance = if name.ends_with("_ckpt") || name.ends_with("_elastic") {
                        1.05
                    } else {
                        1.10
                    };
                    match baseline {
                        Some(b) if fresh > b * tolerance => {
                            eprintln!(
                                "REGRESSION {name}: virtual makespan {fresh:.6}s vs baseline \
                                 {b:.6}s (+{:.1}%, tolerance {:.0}%)",
                                (fresh / b - 1.0) * 100.0,
                                (tolerance - 1.0) * 100.0
                            );
                            regressed = true;
                            // Attribute the regression: fresh-vs-committed
                            // per-phase deltas, largest first.
                            let committed = baseline_entry
                                .and_then(|e| e["phases"].as_object().cloned())
                                .unwrap_or_default();
                            let mut deltas: Vec<(String, f64)> = row
                                .phases
                                .iter()
                                .flatten()
                                .map(|(phase, secs)| {
                                    let was =
                                        committed.get(*phase).and_then(|v| v.as_f64()).unwrap_or(0.0);
                                    (phase.to_string(), secs - was)
                                })
                                .collect();
                            deltas.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                            if let Some((phase, d)) = deltas.first().filter(|(_, d)| *d > 0.0) {
                                eprintln!(
                                    "  regressing phase: `{phase}` (+{d:.6}s vs baseline)"
                                );
                            }
                            let delta_obj: std::collections::BTreeMap<String, serde_json::Value> =
                                deltas
                                    .iter()
                                    .map(|(k, v)| (k.clone(), serde_json::json!(*v)))
                                    .collect();
                            diff_entries.push(serde_json::json!({
                                "bench": name,
                                "baseline_makespan_s": b,
                                "fresh_makespan_s": fresh,
                                "delta_s": fresh - b,
                                "phase_deltas": delta_obj,
                                "regressing_phase": deltas
                                    .first()
                                    .filter(|(_, d)| *d > 0.0)
                                    .map(|(p, _)| serde_json::json!(p.clone()))
                                    .unwrap_or(serde_json::Value::Null),
                            }));
                        }
                        Some(b) => {
                            say!("check {name:<24} {fresh:.6}s vs {b:.6}s baseline: ok");
                        }
                        None => {
                            say!("check {name:<24} no baseline entry (new bench)");
                        }
                    }
                    // Engine-throughput gates: the synthetic must hold the
                    // SPEEDUP_FLOOR speedup over task holds, and entries
                    // with a recorded events/sec must stay within 10% of
                    // their committed baseline (regressions only — faster
                    // is always fine).
                    if let Some(speedup) = row.speedup_vs_task_hold {
                        if speedup < SPEEDUP_FLOOR {
                            eprintln!(
                                "REGRESSION {name}: timer speedup {speedup:.2}x vs task \
                                 holds is below the {SPEEDUP_FLOOR}x floor"
                            );
                            regressed = true;
                        } else {
                            say!(
                                "check {name:<24} {speedup:.2}x vs task holds: ok (>= {SPEEDUP_FLOOR}x)"
                            );
                        }
                    }
                    if let (Some(eps), Some(base_eps)) = (
                        row.events_per_sec,
                        baseline_entry.and_then(|e| e["events_per_sec"].as_f64()),
                    ) {
                        let expected = base_eps * machine_scale;
                        if eps < expected / 1.10 {
                            eprintln!(
                                "REGRESSION {name}: {eps:.0} events/s vs baseline \
                                 {base_eps:.0} (machine-scaled to {expected:.0}, \
                                 -{:.1}%, tolerance 10%)",
                                (1.0 - eps / expected) * 100.0
                            );
                            regressed = true;
                        } else {
                            say!(
                                "check {name:<24} {eps:.0} ev/s vs {expected:.0} \
                                 machine-scaled baseline: ok"
                            );
                        }
                    }
                }
                if regressed {
                    if !diff_entries.is_empty() {
                        let diff_doc = serde_json::json!({
                            "schema": "prs-bench-diff-v1",
                            "entries": diff_entries,
                        });
                        let diff_path = "BENCH_diff.json";
                        match std::fs::write(
                            diff_path,
                            serde_json::to_string_pretty(&diff_doc).unwrap() + "\n",
                        ) {
                            Ok(()) => eprintln!("regression attribution written to {diff_path}"),
                            Err(e) => eprintln!("error writing {diff_path}: {e}"),
                        }
                    }
                    return 1;
                }
                return 0;
            }
            Err(e) => {
                eprintln!("error reading baseline {out_path}: {e}");
                return 1;
            }
        }
    }
    let json_entries: Vec<serde_json::Value> = entries
        .iter()
        .map(|row| {
            let mut e = serde_json::json!({
                "bench": row.name,
                "median_ns": row.median_ns as f64,
                "iters": row.iters as f64,
                "virtual_makespan": row.virtual_makespan,
            });
            if let serde_json::Value::Object(map) = &mut e {
                if let Some(eps) = row.events_per_sec {
                    map.insert("events_per_sec".into(), serde_json::json!(eps));
                }
                if let Some(s) = row.speedup_vs_task_hold {
                    map.insert("speedup_vs_task_hold".into(), serde_json::json!(s));
                }
                if let Some(l) = row.task_hold_eps {
                    map.insert("task_hold_events_per_sec".into(), serde_json::json!(l));
                }
                if let Some(phases) = &row.phases {
                    let obj: std::collections::BTreeMap<String, serde_json::Value> = phases
                        .iter()
                        .map(|(k, v)| (k.to_string(), serde_json::json!(*v)))
                        .collect();
                    map.insert("phases".into(), serde_json::json!(obj));
                }
            }
            e
        })
        .collect();
    let doc = serde_json::json!({
        "schema": "prs-bench-v1",
        "entries": json_entries,
    });
    if let Err(e) = std::fs::write(&out_path, serde_json::to_string_pretty(&doc).unwrap() + "\n") {
        eprintln!("error writing {out_path}: {e}");
        return 1;
    }
    eprintln!("benchmark results written to {out_path}");
    0
}

/// One checkpoint-enabled bench iteration: C-means through the resilient
/// driver with a fresh in-memory store and no faults. Returns the virtual
/// makespan.
fn run_checkpointed_bench(
    opts: &RunOptions,
    spec: &ClusterSpec,
) -> Result<(f64, u64, std::collections::BTreeMap<&'static str, f64>), String> {
    let k = opts.clusters.max(1);
    let pts = Arc::new(clustering_workload(opts.points, opts.dims, k, opts.seed).points);
    let app = Arc::new(CMeans::new(pts, k, 2.0, 1e-3, opts.seed));
    let store: Arc<dyn prs_core::CheckpointStore> = Arc::new(prs_core::MemStore::new());
    prs_core::run_resilient(spec, app, opts.config, store)
        .map(|outcome| {
            let phases = phase_breakdown(&outcome.metrics);
            (outcome.total_virtual_secs, outcome.metrics.sim_events, phases)
        })
        .map_err(|e| e.to_string())
}

/// The `_elastic` bench flavour: the same C-means scenario through
/// `run_elastic` with an empty membership plan and no autoscaler — the
/// driver delegates to the resilient path, so the virtual makespan must
/// match the fixed-cluster baseline bit for bit.
fn run_elastic_bench(
    opts: &RunOptions,
    spec: &ClusterSpec,
) -> Result<(f64, u64, std::collections::BTreeMap<&'static str, f64>), String> {
    let k = opts.clusters.max(1);
    let pts = Arc::new(clustering_workload(opts.points, opts.dims, k, opts.seed).points);
    let app = Arc::new(CMeans::new(pts, k, 2.0, 1e-3, opts.seed));
    let store: Arc<dyn prs_core::CheckpointStore> = Arc::new(prs_core::MemStore::new());
    let plan = prs_core::MembershipPlan::seeded(opts.seed);
    prs_core::run_elastic(spec, app, opts.config, store, &plan, None)
        .map(|outcome| {
            let phases = phase_breakdown(&outcome.metrics);
            (outcome.total_virtual_secs, outcome.metrics.sim_events, phases)
        })
        .map_err(|e| e.to_string())
}

/// `prs chaos [--trials <n>] [--seed <n>] [--out <file>] [--json]`:
/// sample seeded fault plans across a cluster/workload grid, run each
/// through the resilient driver, and assert the recovery invariants
/// (result bit-equality with the fault-free run, flow conservation,
/// speculation reconciliation, counter consistency, a monotone virtual
/// clock). Writes a deterministic `chaos_report.json`; exits 1 when any
/// trial violates an invariant.
fn cmd_chaos(args: &[String]) -> i32 {
    let parsed = parse_kv(args).and_then(|(kv, flags)| {
        for f in &flags {
            if f != "json" && f != "score-watch" && f != "record" && f != "churn" {
                return Err(format!("unknown flag --{f}"));
            }
        }
        let mut cfg = prs_core::ChaosConfig::default();
        let mut out_path = "chaos_report.json".to_string();
        let mut watch_out = "watch_score.json".to_string();
        let mut record_out = "chaos_records".to_string();
        let mut rules_path: Option<String> = None;
        for (k, v) in &kv {
            match k.as_str() {
                "trials" => {
                    cfg.trials = v
                        .parse::<usize>()
                        .map_err(|_| format!("--trials expects a count, got '{v}'"))?;
                }
                "seed" => {
                    cfg.seed = v
                        .parse::<u64>()
                        .map_err(|_| format!("--seed expects an integer, got '{v}'"))?;
                }
                "out" => out_path = v.clone(),
                "watch-out" => watch_out = v.clone(),
                "record-out" => record_out = v.clone(),
                "rules" => rules_path = Some(v.clone()),
                other => return Err(format!("unknown option --{other}")),
            }
        }
        let score_watch = flags.iter().any(|f| f == "score-watch");
        if !score_watch && (rules_path.is_some() || kv.contains_key("watch-out")) {
            return Err("--rules / --watch-out require --score-watch".to_string());
        }
        let record = flags.iter().any(|f| f == "record");
        if !record && kv.contains_key("record-out") {
            return Err("--record-out requires --record".to_string());
        }
        if record && !score_watch {
            return Err("--record requires --score-watch (captures are incident-triggered)".to_string());
        }
        let churn = flags.iter().any(|f| f == "churn");
        if churn && (score_watch || record) {
            return Err(
                "--churn runs the elastic-membership grid and cannot combine with \
                 --score-watch / --record"
                    .to_string(),
            );
        }
        if churn && !kv.contains_key("out") {
            out_path = "churn_report.json".to_string();
        }
        Ok((
            cfg,
            out_path,
            flags.iter().any(|f| f == "json"),
            score_watch,
            watch_out,
            rules_path,
            record.then_some(record_out),
            churn,
        ))
    });
    let (cfg, out_path, json, score_watch, watch_out, rules_path, record_out, churn) = match parsed
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if churn {
        let report = prs_core::run_chaos_churn(&cfg);
        let doc = report.to_json();
        if let Err(e) = std::fs::write(&out_path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        {
            eprintln!("error writing {out_path}: {e}");
            return 1;
        }
        if json {
            say!("{}", serde_json::to_string_pretty(&doc).unwrap());
        } else {
            say!(
                "churn: {} trials (seed {}) — {} scale-out, {} drain, {} evict, {} with crashes, \
                 {} deadline handoff(s)",
                report.trials.len(),
                report.seed,
                report.scale_out_trials(),
                report.drain_trials(),
                report.evict_trials(),
                report.crash_trials(),
                report.handoffs_total()
            );
            for t in report.trials.iter().filter(|t| !t.passed()) {
                say!(
                    "FAIL trial {}: identical={} flows={} ledger={} size={} clock={}",
                    t.index,
                    t.result_identical,
                    t.flow_conserved,
                    t.ledger_reconciled,
                    t.size_conserved,
                    t.clock_monotone
                );
            }
            say!(
                "{} — report written to {out_path}",
                if report.all_passed() { "all invariants hold" } else { "INVARIANT VIOLATIONS" }
            );
        }
        return if report.all_passed() { 0 } else { 1 };
    }
    let rules = match &rules_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error reading {path}: {e}");
                    return 1;
                }
            };
            match watch::WatchConfig::from_toml(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return 2;
                }
            }
        }
        None => watch::WatchConfig::default(),
    };
    let (report, score, recordings) = if let Some(dir) = &record_out {
        let (report, score, recordings) =
            prs_core::run_chaos_recorded(&cfg, &rules, obs::RecorderConfig::enabled());
        if let Err(e) = write_chaos_recordings(dir, &recordings) {
            eprintln!("error: {e}");
            return 1;
        }
        (report, Some(score), recordings)
    } else if score_watch {
        let (report, score) = prs_core::run_chaos_scored(&cfg, &rules);
        (report, Some(score), Vec::new())
    } else {
        (prs_core::run_chaos(&cfg), None, Vec::new())
    };
    let doc = report.to_json();
    if let Err(e) = std::fs::write(&out_path, serde_json::to_string_pretty(&doc).unwrap() + "\n") {
        eprintln!("error writing {out_path}: {e}");
        return 1;
    }
    if json {
        say!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else {
        let (launched, won, wasted) = report.speculation_totals();
        say!(
            "chaos: {} trials (seed {}) — {} worker-crash, {} master-crash",
            report.trials.len(),
            report.seed,
            report.worker_crash_trials(),
            report.master_crash_trials()
        );
        say!(
            "speculation: {launched} launched = {won} won + {wasted} wasted ({})",
            if report.speculation_reconciles() { "reconciles" } else { "MISMATCH" }
        );
        for t in report.trials.iter().filter(|t| !t.passed()) {
            say!(
                "FAIL trial {}: identical={} flows={} spec={} counters={} clock={}",
                t.index,
                t.result_identical,
                t.flow_conserved,
                t.speculation_reconciled,
                t.counters_consistent,
                t.clock_monotone
            );
        }
        say!(
            "{} — report written to {out_path}",
            if report.all_passed() { "all invariants hold" } else { "INVARIANT VIOLATIONS" }
        );
    }
    let mut code = if report.all_passed() { 0 } else { 1 };
    if let Some(score) = &score {
        if let Err(e) = std::fs::write(&watch_out, score.to_json()) {
            eprintln!("error writing {watch_out}: {e}");
            return 1;
        }
        if !json {
            say!(
                "\nwatch: {} trial(s) scored, {} fault-free alert(s)",
                score.trials,
                score.fault_free_alerts
            );
            say!(
                "  {:<14} {:>8} {:>8} {:>9} {:>7} {:>12}",
                "kind", "injected", "detected", "precision", "recall", "median_ttd_s"
            );
            for (kind, k) in &score.kinds {
                say!(
                    "  {:<14} {:>8} {:>8} {:>9.3} {:>7.3} {:>12}",
                    kind.as_str(),
                    k.injected,
                    k.detected,
                    k.precision(),
                    k.recall(),
                    k.median_ttd()
                        .map(|t| format!("{t:.6}"))
                        .unwrap_or_else(|| "-".to_string())
                );
            }
            say!(
                "{} (precision floor {}, recall floor {}) — score written to {watch_out}",
                if score.meets_floors() { "floors met" } else { "FLOORS MISSED" },
                score.precision_floor,
                score.recall_floor
            );
        }
        if !score.meets_floors() {
            code = 1;
        }
    }
    if let Some(dir) = &record_out {
        let captures: usize = recordings.iter().map(|r| r.captures.len()).sum();
        if !json {
            say!(
                "recorder: {} trial(s) recorded — {} capture(s) + postmortems written to {dir}/",
                recordings.len(),
                captures
            );
        }
    }
    code
}

/// Writes each recorded chaos trial's captures and assembled postmortem
/// into `<dir>/trial-<index>/`.
fn write_chaos_recordings(dir: &str, recordings: &[prs_core::TrialRecording]) -> Result<(), String> {
    let root = std::path::Path::new(dir);
    for rec in recordings {
        let tdir = root.join(format!("trial-{}", rec.index));
        std::fs::create_dir_all(&tdir).map_err(|e| format!("creating {}: {e}", tdir.display()))?;
        for c in &rec.captures {
            let path = tdir.join(c.file_name());
            std::fs::write(&path, c.to_jsonl())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        // Echo the incident rows so `prs postmortem <trial dir>` can
        // re-assemble the identical document from the artifacts alone.
        let incidents: Vec<serde_json::Value> = rec
            .postmortem
            .as_object()
            .and_then(|o| o.get("incidents"))
            .and_then(serde_json::Value::as_array)
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|e| e.as_object().and_then(|o| o.get("incident")).cloned())
                    .collect()
            })
            .unwrap_or_default();
        if !incidents.is_empty() {
            let mut text = String::new();
            for inc in &incidents {
                text.push_str(&inc.to_json_string());
                text.push('\n');
            }
            let path = tdir.join("incidents.jsonl");
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        for (name, text) in [
            ("decisions.jsonl", &rec.decisions_jsonl),
            ("stacks.jsonl", &rec.stacks_jsonl),
        ] {
            let path = tdir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let path = tdir.join("postmortem.json");
        std::fs::write(&path, serde_json::to_string_pretty(&rec.postmortem).unwrap() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// `prs postmortem <dir>`: join the flight-recorder captures of a
/// recorded dir with its incidents, decision audit and stack frames into
/// one `postmortem.json`, and print the human-readable incident report.
/// Exits 2 on usage errors, 1 when the dir is missing or holds no
/// `capture-*.jsonl` files.
fn cmd_postmortem(args: &[String]) -> i32 {
    let parsed = (|| -> Result<String, String> {
        let (positional, rest) = match args.first() {
            Some(a) if !a.starts_with("--") => (Some(a.clone()), &args[1..]),
            _ => (None, args),
        };
        let (kv, flags) = parse_kv(rest)?;
        if let Some(f) = flags.first() {
            return Err(format!("unknown flag --{f}"));
        }
        for k in kv.keys() {
            if k != "dir" {
                return Err(format!("unknown option --{k}"));
            }
        }
        positional
            .or_else(|| kv.get("dir").cloned())
            .ok_or_else(|| "missing <dir> (a --record'ed --obs bundle or chaos trial dir)".to_string())
    })();
    let dir = match parsed {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let root = std::path::Path::new(&dir);
    if !root.is_dir() {
        eprintln!("error: {dir} is not a directory");
        return 1;
    }
    // Every capture file in name order: capture ids are per-incident, so
    // the lexicographic tie-break keeps multi-digit ids deterministic.
    let mut capture_paths: Vec<std::path::PathBuf> = match std::fs::read_dir(root) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("capture-") && n.ends_with(".jsonl"))
                    .unwrap_or(false)
            })
            .collect(),
        Err(e) => {
            eprintln!("error reading {dir}: {e}");
            return 1;
        }
    };
    capture_paths.sort();
    if capture_paths.is_empty() {
        eprintln!(
            "error: no capture files (capture-*.jsonl) in {dir} — was the run recorded \
             with --record?"
        );
        return 1;
    }
    let mut docs = Vec::new();
    for path in &capture_paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error reading {}: {e}", path.display());
                return 1;
            }
        };
        match insight::parse_capture_jsonl(&text) {
            Ok(doc) => docs.push(doc),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return 1;
            }
        }
    }
    // The companion artifacts are optional: a chaos trial dir carries only
    // captures, an --obs bundle carries all three.
    let incidents: Vec<serde_json::Value> = std::fs::read_to_string(root.join("incidents.jsonl"))
        .map(|text| {
            text.lines()
                .filter_map(|l| serde_json::from_str(l).ok())
                .filter(|v: &serde_json::Value| {
                    v.as_object().map(|o| !o.contains_key("schema")).unwrap_or(false)
                })
                .collect()
        })
        .unwrap_or_default();
    let incidents = if incidents.is_empty() {
        // No incident log — fall back to one skeleton incident per capture
        // so the captures still anchor postmortem entries.
        docs.iter()
            .map(|d| {
                serde_json::from_str(&format!(
                    "{{\"id\":{},\"capture\":{:?},\"t_start\":{},\"t_end\":{}}}",
                    d.incident, d.name, d.t0, d.t1
                ))
                .unwrap()
            })
            .collect()
    } else {
        incidents
    };
    let decisions = std::fs::read_to_string(root.join("decisions.jsonl"))
        .map(|t| AuditLog::parse_jsonl(&t))
        .unwrap_or_default();
    let frames = std::fs::read_to_string(root.join("stacks.jsonl"))
        .ok()
        .and_then(|t| obs::FrameSet::parse_stacks_jsonl(&t).ok())
        .unwrap_or_default();
    let pm = insight::postmortem::assemble(&docs, &incidents, &decisions, frames.frames());
    let out = root.join("postmortem.json");
    if let Err(e) = std::fs::write(&out, serde_json::to_string_pretty(&pm).unwrap() + "\n") {
        eprintln!("error writing {}: {e}", out.display());
        return 1;
    }
    say!("{}", insight::postmortem::summary(&pm).trim_end());
    eprintln!("postmortem written to {}", out.display());
    0
}

/// Resolves the node hardware for `run`/`sweep`: a `prs calibrate` TOML
/// when `--profile-file` is given, a named preset otherwise.
fn resolve_profile(opts: &RunOptions) -> Result<roofline::profiles::DeviceProfile, String> {
    match &opts.profile_file {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            insight::profile_toml::parse_device_profile(&text).map_err(|e| format!("{path}: {e}"))
        }
        None => parse_profile(&opts.profile),
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let opts = match parse_run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            print_help();
            return 2;
        }
    };
    let profile = match resolve_profile(&opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let spec = ClusterSpec::homogeneous(
        opts.nodes,
        profile,
        netsim::NetworkParams::infiniband_qdr(),
    );

    // An elastic run loads its churn plan up front so a bad plan file
    // fails like any other argument error, before the cluster spins up.
    let elastic = opts.membership.is_some() || opts.autoscale;
    let mplan = if let Some(path) = &opts.membership {
        let loaded = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| {
                prs_core::MembershipPlan::from_toml(&text).map_err(|e| format!("{path}: {e}"))
            });
        match loaded {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    } else {
        prs_core::MembershipPlan::seeded(opts.seed)
    };

    // With `--record` the flight recorder rides along: shadow mode when an
    // `--obs` bundle is requested (the export needs the full bus), bounded
    // mode otherwise so the run stays O(budget) in resident events.
    let rec_cfg = opts.config.recorder;
    let obs = if opts.obs_out.is_some() {
        if rec_cfg.is_enabled() {
            Obs::recording_with_recorder(rec_cfg, false)
        } else {
            Obs::recording()
        }
    } else if rec_cfg.is_enabled() {
        Obs::recording_with_recorder(rec_cfg, true)
    } else {
        Obs::disabled()
    };
    let outcome = if elastic {
        dispatch_elastic(&opts, &spec, &mplan, obs.clone())
    } else {
        dispatch(&opts, &spec, obs.clone())
    };
    let (result, label, extra) = match outcome {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };

    if opts.json {
        let doc = serde_json::json!({
            "app": label,
            "nodes": opts.nodes,
            "points": opts.points,
            "iterations": result.iterations.len(),
            "setup_seconds": result.setup_seconds,
            "compute_seconds": result.compute_seconds,
            "seconds_per_iteration": result.seconds_per_iteration(),
            "gflops_per_node": result.gflops_per_node(),
            "cpu_fraction": result.cpu_fraction,
            "cpu_map_tasks": result.cpu_map_tasks,
            "gpu_map_tasks": result.gpu_map_tasks,
            "sim_events": result.sim_events,
            "extra": extra,
        });
        say!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else {
        say!("{label} on {} node(s):", opts.nodes);
        if let Some(p) = result.cpu_fraction {
            say!("  CPU fraction (Eq 8) : {:.1}%", p * 100.0);
        }
        say!("  iterations          : {}", result.iterations.len());
        say!("  setup               : {:.3} ms", result.setup_seconds * 1e3);
        say!(
            "  compute             : {:.3} ms ({:.3} ms/iteration)",
            result.compute_seconds * 1e3,
            result.seconds_per_iteration() * 1e3
        );
        say!("  Gflop/s per node    : {:.2}", result.gflops_per_node());
        say!(
            "  map tasks CPU/GPU   : {} / {}",
            result.cpu_map_tasks, result.gpu_map_tasks
        );
        if !extra.is_empty() {
            say!("  {extra}");
        }
        if opts.timeline {
            say!("\n{}", render_ascii(&result.timeline, 100));
        }
    }
    if let Some(path) = &opts.trace_out {
        match std::fs::write(path, to_chrome_trace(&result.timeline)) {
            Ok(()) => eprintln!("trace written to {path} (open in chrome://tracing or Perfetto)"),
            Err(e) => {
                eprintln!("error writing trace to {path}: {e}");
                return 1;
            }
        }
    }
    if let Some(dir) = &opts.obs_out {
        match write_obs_bundle(dir, &obs, &result.timeline) {
            Ok(()) => eprintln!(
                "observability bundle written to {dir}/ (events.jsonl, metrics.prom, \
                 decisions.jsonl, rollup.jsonl, alerts.jsonl, incidents.jsonl, trace.json, \
                 stacks.jsonl, profile.folded, profile.json{})",
                if rec_cfg.is_enabled() {
                    ", capture-*.jsonl, postmortem.json"
                } else {
                    ""
                }
            ),
            Err(e) => {
                eprintln!("error writing observability bundle: {e}");
                return 1;
            }
        }
    } else if rec_cfg.is_enabled() {
        let s = obs.recorder.summary();
        eprintln!(
            "flight recorder: {} event(s) retained (peak {}), {} folded into {} rollup bin(s), \
             ~{} B resident",
            s.retained, s.peak_retained, s.folded, s.fold_bins, s.bytes
        );
    }
    0
}

/// Converts paired message flows into Chrome-trace arrows.
fn flow_arrows(flows: &[insight::Flow]) -> Vec<FlowArrow> {
    flows
        .iter()
        .map(|f| FlowArrow {
            id: f.id,
            name: format!("msg {}B", f.bytes as u64),
            src_lane: f.src_lane.clone(),
            send_t: f.send_t,
            dst_lane: f.dst_lane.clone(),
            recv_t: f.recv_t,
        })
        .collect()
}

/// Writes the deterministic export artifacts of an observed run:
/// `events.jsonl`, `metrics.prom` (including the rollup gauge families),
/// `decisions.jsonl`, `rollup.jsonl`, and a `trace.json` whose lanes are
/// linked by flow arrows for every paired cross-node message.
fn write_obs_bundle(dir: &str, obs: &Obs, timeline: &[device::Interval]) -> Result<(), String> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |name: &str, content: String| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    let events = insight::from_bus(&obs.bus);
    let flows = insight::pair_flows(&events);
    let decisions = obs.audit.records();
    let horizon = events.iter().map(|e| e.end()).fold(0.0, f64::max);
    let roll_events: Vec<RollupEvent> = events
        .iter()
        .map(|e| RollupEvent {
            t: e.t,
            dur: e.dur,
            lane: e.lane.clone(),
            kind: e.kind.clone(),
            iter: e.iter,
            attrs: e.attrs.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        })
        .collect();
    let mut roll = rollup(&roll_events, &decisions, &RollupConfig::auto(horizon.max(1e-9)));
    roll.register_metrics(&obs.metrics);
    let mut watched = watch::watch(&roll_events, &decisions, &watch::WatchConfig::default());
    watched.register_metrics(&obs.metrics);
    let set = obs::FrameSet::from_stack(&obs.stack);
    if obs.recorder.is_enabled() {
        // Freeze + capture the window around every incident the watchdog
        // opened, link each incident to its capture, and assemble the
        // machine-readable postmortem alongside the raw captures.
        let captures = watch::capture_incidents(&mut watched, &obs.recorder);
        for c in &captures {
            write(&c.file_name(), c.to_jsonl())?;
        }
        let docs: Vec<insight::CaptureDoc> =
            captures.iter().map(insight::postmortem::capture_doc).collect();
        let incident_values: Vec<serde_json::Value> =
            watched.incidents.iter().map(|i| i.to_value()).collect();
        let pm = insight::postmortem::assemble(&docs, &incident_values, &decisions, set.frames());
        write(
            "postmortem.json",
            serde_json::to_string_pretty(&pm).unwrap() + "\n",
        )?;
        roll.recorder = Some(obs.recorder.summary());
        obs.recorder.register_metrics(&obs.metrics);
    }
    write("events.jsonl", obs.bus.to_jsonl())?;
    write("metrics.prom", obs.metrics.to_prometheus())?;
    write("decisions.jsonl", obs.audit.to_jsonl())?;
    write("rollup.jsonl", roll.to_jsonl())?;
    write("alerts.jsonl", watched.alerts_jsonl())?;
    write("incidents.jsonl", watched.incidents_jsonl())?;
    write("trace.json", to_chrome_trace_with_flows(timeline, &flow_arrows(&flows)))?;
    let prof = obs::profile(&set, horizon, obs::profile::DEFAULT_PERIOD_S);
    write("stacks.jsonl", set.to_stacks_jsonl())?;
    write("profile.folded", prof.to_folded())?;
    write("profile.json", prof.to_json())?;
    Ok(())
}

type RunOutcome = Result<(prs_core::JobMetrics, String, String), String>;

/// Runs C-means through the elastic membership driver: the loaded plan
/// (and/or the default hysteresis autoscaler) governs epoch boundaries,
/// and a fresh in-memory store carries checkpoints across them.
fn dispatch_elastic(
    opts: &RunOptions,
    spec: &ClusterSpec,
    mplan: &prs_core::MembershipPlan,
    obs: Obs,
) -> RunOutcome {
    let k = opts.clusters.max(1);
    let pts = Arc::new(clustering_workload(opts.points, opts.dims, k, opts.seed).points);
    let app = Arc::new(CMeans::new(pts, k, 2.0, 1e-3, opts.seed));
    let store: Arc<dyn prs_core::CheckpointStore> = Arc::new(prs_core::MemStore::new());
    let policy = prs_core::AutoscalePolicy::default();
    let out = prs_core::run_elastic_observed(
        spec,
        app.clone(),
        opts.config,
        store,
        mplan,
        opts.autoscale.then_some(&policy),
        obs,
    )
    .map_err(|e| e.to_string())?;
    let m = &out.membership;
    let final_nodes = out.cluster_sizes.last().map(|&(_, n)| n).unwrap_or(spec.len());
    let obj = app.objective_history().last().copied().unwrap_or(0.0);
    let extra = format!(
        "elastic: {} epoch(s), {} -> {} node(s), joins={} (retries={}) drains={} evicts={} \
         handoffs={} grow={} shrink={}; final J_m = {obj:.4e}",
        out.attempts.len(),
        spec.len(),
        final_nodes,
        m.joins,
        m.join_retries,
        m.drains,
        m.evictions,
        m.handoffs,
        m.grow_decisions,
        m.shrink_decisions,
    );
    Ok((out.metrics, "C-means (elastic)".into(), extra))
}

/// Builds the requested app, runs it (with the given observability
/// bundle attached), and summarizes app-specific results.
fn dispatch(opts: &RunOptions, spec: &ClusterSpec, obs: Obs) -> RunOutcome {
    let seed = opts.seed;
    let n = opts.points;
    let d = opts.dims;
    let k = opts.clusters.max(1);
    let err = |e: prs_core::JobError| e.to_string();

    fn metrics<O>(r: JobResult<O>) -> prs_core::JobMetrics {
        r.metrics
    }

    match opts.app {
        AppKind::Cmeans => {
            let pts = Arc::new(clustering_workload(n, d, k, seed).points);
            let app = Arc::new(CMeans::new(pts, k, 2.0, 1e-3, seed));
            let r = run_iterative_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let obj = app.objective_history().last().copied().unwrap_or(0.0);
            Ok((metrics(r), "C-means".into(), format!("final J_m = {obj:.4e}")))
        }
        AppKind::Kmeans => {
            let pts = Arc::new(clustering_workload(n, d, k, seed).points);
            let app = Arc::new(KMeans::new(pts, k, 1e-3, seed));
            let r = run_iterative_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let sse = app.sse_history().last().copied().unwrap_or(0.0);
            Ok((metrics(r), "K-means".into(), format!("final SSE = {sse:.4e}")))
        }
        AppKind::Gmm => {
            let pts = Arc::new(clustering_workload(n, d, k, seed).points);
            let app = Arc::new(Gmm::new(pts, k, 1e-6, seed));
            let r = run_iterative_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let ll = app.log_likelihood_history().last().copied().unwrap_or(0.0);
            Ok((metrics(r), "GMM".into(), format!("final logL = {ll:.4e}")))
        }
        AppKind::Da => {
            let pts = Arc::new(clustering_workload(n, d, k, seed).points);
            let app = Arc::new(DaKmeans::new(pts, k, 0.85, 1e-3));
            let r = run_iterative_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            Ok((
                metrics(r),
                "DA clustering".into(),
                format!("final T = {:.4e}", app.temperature()),
            ))
        }
        AppKind::Gemv => {
            let mut rng = SplitMix64::new(seed);
            let a = Arc::new(MatrixF32::from_fn(n, d, |_, _| rng.next_f32() - 0.5));
            let x: Arc<Vec<f32>> = Arc::new((0..d).map(|_| rng.next_f32()).collect());
            let app = Arc::new(Gemv::new(a, x));
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let y = app.assemble(&r.outputs);
            Ok((
                metrics(r),
                "GEMV".into(),
                format!("|y| = {} elements", y.len()),
            ))
        }
        AppKind::Spmv => {
            let m = Arc::new(CsrMatrix::synthetic(n, d.max(1), 8, seed));
            let mut rng = SplitMix64::new(seed ^ 1);
            let x: Arc<Vec<f32>> = Arc::new((0..d.max(1)).map(|_| rng.next_f32()).collect());
            let expect = m.spmv_ref(&x);
            let app = Arc::new(Spmv::new(m, x));
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let y = app.assemble(&r.outputs);
            let ok = y
                .iter()
                .zip(&expect)
                .all(|(a, b)| (a - b).abs() <= 1e-4 * b.abs().max(1.0));
            Ok((
                metrics(r),
                "SpMV".into(),
                format!("reference check: {}", if ok { "ok" } else { "FAILED" }),
            ))
        }
        AppKind::Dgemm => {
            let mut rng = SplitMix64::new(seed);
            let a = Arc::new(MatrixF32::from_fn(n, d, |_, _| rng.next_f32() - 0.5));
            let b = Arc::new(MatrixF32::from_fn(d, d, |_, _| rng.next_f32() - 0.5));
            let app = Arc::new(Dgemm::new(a, b));
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            Ok((
                metrics(r),
                "DGEMM".into(),
                format!("C is {n} x {d}"),
            ))
        }
        AppKind::Wordcount => {
            let app = Arc::new(WordCount::synthetic(n, k as u32 * 100, seed));
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            Ok((
                metrics(r),
                "WordCount".into(),
                format!("vocab = {}", app.vocab()),
            ))
        }
        AppKind::Fft => {
            let len = d.next_power_of_two().max(64);
            let app = Arc::new(BatchFft::synthetic(n.max(1), len, seed));
            let expected = len as f64 * app.total_time_energy();
            let r = run_job_observed(spec, app.clone(), opts.config, obs.clone()).map_err(err)?;
            let spectral: f64 = r.outputs.iter().map(|(_, e)| e).sum();
            let ok = (spectral - expected).abs() < 1e-6 * expected.abs().max(1.0);
            Ok((
                metrics(r),
                "BatchFFT".into(),
                format!("Parseval check: {}", if ok { "ok" } else { "FAILED" }),
            ))
        }
    }
}
