//! The observability bundle: derived and written from a live `Obs` the
//! way `prs run --obs <dir> --record` writes it, then re-read from disk to
//! answer the questions `prs analyze`, `prs profile`, `prs watch` and
//! `prs postmortem` answer.

use crate::tracer::Tracer;
use device::{to_chrome_trace_with_flows, FlowArrow, Interval};
use obs::rollup::{rollup, RollupConfig, RollupEvent};
use obs::{AuditLog, Obs};
use std::path::{Path, PathBuf};

fn roll_events(events: &[insight::TraceEvent]) -> Vec<RollupEvent> {
    events
        .iter()
        .map(|e| RollupEvent {
            t: e.t,
            dur: e.dur,
            lane: e.lane.clone(),
            kind: e.kind.clone(),
            iter: e.iter,
            attrs: e.attrs.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        })
        .collect()
}

fn pretty(v: &serde_json::Value) -> String {
    serde_json::to_string_pretty(v).expect("a JSON value always renders") + "\n"
}

/// Derives every view of an observed run (rollup, watchdog incidents,
/// captures, postmortem, profile) and writes the bundle into `dir`.
/// Returns the bytes written.
pub fn write(dir: &Path, obs: &Obs, timeline: &[Interval]) -> Result<u64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut bytes = 0u64;
    let mut put = |name: &str, content: String| -> Result<(), String> {
        let path = dir.join(name);
        bytes += content.len() as u64;
        std::fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    let events = insight::from_bus(&obs.bus);
    let flows: Vec<FlowArrow> = insight::pair_flows(&events)
        .iter()
        .map(|f| FlowArrow {
            id: f.id,
            name: format!("msg {}B", f.bytes as u64),
            src_lane: f.src_lane.clone(),
            send_t: f.send_t,
            dst_lane: f.dst_lane.clone(),
            recv_t: f.recv_t,
        })
        .collect();
    let decisions = obs.audit.records();
    let horizon = events.iter().map(|e| e.end()).fold(0.0, f64::max);
    let rolled = roll_events(&events);
    let mut roll = rollup(&rolled, &decisions, &RollupConfig::auto(horizon.max(1e-9)));
    roll.register_metrics(&obs.metrics);
    let mut watched = watch::watch(&rolled, &decisions, &watch::WatchConfig::default());
    watched.register_metrics(&obs.metrics);
    let set = obs::FrameSet::from_stack(&obs.stack);
    if obs.recorder.is_enabled() {
        let captures = watch::capture_incidents(&mut watched, &obs.recorder);
        for c in &captures {
            put(&c.file_name(), c.to_jsonl())?;
        }
        let docs: Vec<insight::CaptureDoc> = captures
            .iter()
            .map(insight::postmortem::capture_doc)
            .collect();
        let incidents: Vec<serde_json::Value> =
            watched.incidents.iter().map(|i| i.to_value()).collect();
        let pm = insight::postmortem::assemble(&docs, &incidents, &decisions, set.frames());
        put("postmortem.json", pretty(&pm))?;
        roll.recorder = Some(obs.recorder.summary());
        obs.recorder.register_metrics(&obs.metrics);
    }
    put("events.jsonl", obs.bus.to_jsonl())?;
    put("metrics.prom", obs.metrics.to_prometheus())?;
    put("decisions.jsonl", obs.audit.to_jsonl())?;
    put("rollup.jsonl", roll.to_jsonl())?;
    put("alerts.jsonl", watched.alerts_jsonl())?;
    put("incidents.jsonl", watched.incidents_jsonl())?;
    put("trace.json", to_chrome_trace_with_flows(timeline, &flows))?;
    let prof = obs::profile(&set, horizon, obs::profile::DEFAULT_PERIOD_S);
    put("stacks.jsonl", set.to_stacks_jsonl())?;
    put("profile.folded", prof.to_folded())?;
    put("profile.json", prof.to_json())?;
    Ok(bytes)
}

/// The answers read back from a bundle on disk.
pub struct Answers {
    pub events: usize,
    pub analyzed_iterations: usize,
    pub profile_samples: u64,
    pub incidents: usize,
    /// The postmortem rebuilt from the on-disk captures, and the one the
    /// run wrote: the correctness gate wants them byte-identical.
    pub postmortem_rebuilt: String,
    pub postmortem_written: String,
}

fn read(path: PathBuf) -> Result<String, String> {
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Re-reads the bundle in `dir` and answers the four CLI questions, each
/// inside its own span.
pub fn query(dir: &Path, tracer: &Tracer) -> Result<Answers, String> {
    let (events, decisions) = tracer.span("insight.parse", || -> Result<_, String> {
        let events = insight::parse_events_jsonl(&read(dir.join("events.jsonl"))?)?;
        let decisions = AuditLog::parse_jsonl(&read(dir.join("decisions.jsonl"))?);
        Ok((events, decisions))
    })?;
    let analyzed_iterations = tracer.span("insight.analyze", || {
        let analysis = insight::analyze(&events);
        // Render both reports as `prs analyze` does; only their cost matters here.
        std::hint::black_box(insight::report_json(&analysis));
        std::hint::black_box(insight::critical_path_json(&analysis));
        analysis.iterations.len()
    });
    let (profile_samples, frames) = tracer.span("obs.profile", || -> Result<_, String> {
        let set = obs::FrameSet::parse_stacks_jsonl(&read(dir.join("stacks.jsonl"))?)?;
        let horizon = events
            .iter()
            .map(insight::TraceEvent::end)
            .fold(0.0, f64::max);
        let prof = obs::profile(&set, horizon, obs::profile::DEFAULT_PERIOD_S);
        Ok((prof.samples, set))
    })?;
    let incidents = tracer.span("watch.detect", || {
        watch::watch(
            &roll_events(&events),
            &decisions,
            &watch::WatchConfig::default(),
        )
        .incidents
        .len()
    });
    let postmortem_rebuilt = tracer.span("insight.postmortem", || -> Result<_, String> {
        let mut captures: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("listing {}: {e}", dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("capture-") && n.ends_with(".jsonl"))
            })
            .collect();
        captures.sort();
        let docs = captures
            .into_iter()
            .map(|p| insight::parse_capture_jsonl(&read(p)?))
            .collect::<Result<Vec<_>, String>>()?;
        let incidents: Vec<serde_json::Value> = read(dir.join("incidents.jsonl"))?
            .lines()
            .filter_map(|l| serde_json::from_str(l).ok())
            .filter(|v: &serde_json::Value| {
                v.as_object().is_some_and(|o| !o.contains_key("schema"))
            })
            .collect();
        let pm = insight::postmortem::assemble(&docs, &incidents, &decisions, frames.frames());
        Ok(pretty(&pm))
    })?;
    Ok(Answers {
        events: events.len(),
        analyzed_iterations,
        profile_samples,
        incidents,
        postmortem_rebuilt,
        postmortem_written: read(dir.join("postmortem.json"))?,
    })
}
