//! Automated postmortems: one self-contained document per incident.
//!
//! The flight recorder (`obs::recorder`) emits a `capture-<id>.jsonl`
//! per incident; the watchdog emits the incident itself. This module is
//! the synthesis layer on top: it re-analyzes each captured window with
//! the critical-path machinery, scopes the Eq-(8) decision audit and the
//! profiler frames to the window, and assembles everything into a single
//! `postmortem.json` (schema [`POSTMORTEM_SCHEMA`]) an operator can read
//! without the original bundle.
//!
//! Incidents arrive as parsed JSON values, not `watch` types — `insight`
//! sits *below* `watch` in the crate graph, and the JSONL line is the
//! stable contract anyway (the same path serves in-memory assembly after
//! a recorded run and `prs postmortem <dir>` over artifacts on disk).
//!
//! Everything here is a pure function of canonically-sorted inputs, so
//! `postmortem.json` is byte-identical across repeat runs and
//! in-memory-vs-disk assembly.

use crate::critical::analyze;
use crate::trace::TraceEvent;
use obs::{DecisionRecord, Frame};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Schema tag on the root of every `postmortem.json`.
pub const POSTMORTEM_SCHEMA: &str = "prs-postmortem-v1";

/// One parsed `capture-<id>.jsonl`: the frozen incident window with its
/// exact events and the aggregate fold bins covering older history.
#[derive(Debug, Clone)]
pub struct CaptureDoc {
    /// Artifact stem (`capture-3`).
    pub name: String,
    /// Incident id the capture belongs to.
    pub incident: u64,
    /// Window start, virtual seconds.
    pub t0: f64,
    /// Window end, virtual seconds.
    pub t1: f64,
    /// Fold-bin width the recorder used.
    pub rollup_period: f64,
    /// Exact events inside the window.
    pub events: Vec<TraceEvent>,
    /// Fold-bin lines (aggregate-only history), kept as JSON objects.
    pub folds: Vec<Value>,
}

/// Parses one capture artifact (see `obs::CAPTURE_SCHEMA`). The meta
/// line must carry the schema tag; fold lines are recognized by their
/// `fold` key; every other line is an exact event in the `events.jsonl`
/// shape.
pub fn parse_capture_jsonl(text: &str) -> Result<CaptureDoc, String> {
    let mut lines = text.lines().enumerate();
    let (_, meta_line) = lines
        .next()
        .ok_or_else(|| "capture: empty file".to_string())?;
    let meta = serde_json::from_str(meta_line).map_err(|e| format!("capture meta: {e}"))?;
    let meta = meta
        .as_object()
        .ok_or_else(|| "capture meta: not an object".to_string())?;
    match meta.get("schema").and_then(Value::as_str) {
        Some(s) if s == obs::CAPTURE_SCHEMA => {}
        other => return Err(format!("capture meta: schema {other:?}")),
    }
    let num = |k: &str| {
        meta.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("capture meta: missing {k:?}"))
    };
    let mut doc = CaptureDoc {
        name: meta
            .get("capture")
            .and_then(Value::as_str)
            .ok_or_else(|| "capture meta: missing \"capture\"".to_string())?
            .to_string(),
        incident: num("incident")? as u64,
        t0: num("t0")?,
        t1: num("t1")?,
        rollup_period: num("rollup_period_s")?,
        events: Vec::new(),
        folds: Vec::new(),
    };
    let mut event_text = String::new();
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("capture line {}: {e}", lineno + 1))?;
        if v.as_object().is_some_and(|o| o.contains_key("fold")) {
            doc.folds.push(v);
        } else {
            event_text.push_str(line);
            event_text.push('\n');
        }
    }
    doc.events = crate::trace::parse_events_jsonl(&event_text)?;
    Ok(doc)
}

/// Converts a live `obs::Capture` through its canonical JSONL — the one
/// code path for both in-memory and on-disk assembly, which is what
/// guarantees the two agree byte-for-byte.
pub fn capture_doc(capture: &obs::Capture) -> CaptureDoc {
    parse_capture_jsonl(&capture.to_jsonl()).expect("a rendered capture always parses")
}

fn frame_value(f: &Frame) -> Value {
    let mut m = BTreeMap::new();
    m.insert("lane".to_string(), Value::String(f.lane.clone()));
    m.insert("frame".to_string(), Value::String(f.frame.clone()));
    m.insert("t0".to_string(), Value::Number(f.t0));
    m.insert("t1".to_string(), Value::Number(f.t1));
    Value::Object(m)
}

/// Assembles the postmortem document: one entry per incident, each
/// joined with its capture (by the incident's `capture` link or the
/// capture's incident id), the window-scoped critical-path analysis,
/// the Eq-(8) decision rows of the iterations the window touches, and
/// the profiler frames overlapping the window.
///
/// `incidents` are `incidents.jsonl` data lines (or
/// `watch::Incident::to_value()` objects — the same shape). Pure and
/// deterministic: inputs are matched and rendered in id order.
pub fn assemble(
    captures: &[CaptureDoc],
    incidents: &[Value],
    decisions: &[DecisionRecord],
    frames: &[Frame],
) -> Value {
    let mut entries: Vec<(u64, Value)> = Vec::new();
    for inc in incidents {
        let Some(obj) = inc.as_object() else { continue };
        let Some(id) = obj.get("id").and_then(Value::as_u64) else {
            continue;
        };
        let by_link = obj
            .get("capture")
            .and_then(Value::as_str)
            .and_then(|name| captures.iter().find(|c| c.name == name));
        let capture = by_link.or_else(|| captures.iter().find(|c| c.incident == id));

        let mut m = BTreeMap::new();
        m.insert("incident".to_string(), inc.clone());
        if let Some(cap) = capture {
            m.insert("capture".to_string(), Value::String(cap.name.clone()));
            let mut w = BTreeMap::new();
            w.insert("t0".to_string(), Value::Number(cap.t0));
            w.insert("t1".to_string(), Value::Number(cap.t1));
            w.insert(
                "exact_events".to_string(),
                Value::Number(cap.events.len() as f64),
            );
            w.insert("folds".to_string(), Value::Number(cap.folds.len() as f64));
            m.insert("window".to_string(), Value::Object(w));

            // Window-scoped critical path: re-run the analyzer over just
            // the captured events.
            let analysis = analyze(&cap.events);
            let mut path = Vec::new();
            let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
            for it in &analysis.iterations {
                *verdicts.entry(it.blame.as_str()).or_insert(0) += 1;
                for seg in &it.path {
                    let mut s = BTreeMap::new();
                    s.insert("iter".to_string(), Value::Number(it.index as f64));
                    s.insert("stage".to_string(), Value::String(seg.stage.clone()));
                    s.insert("node".to_string(), Value::Number(seg.node as f64));
                    s.insert("lane".to_string(), Value::String(seg.lane.clone()));
                    s.insert("t0".to_string(), Value::Number(seg.start));
                    s.insert("t1".to_string(), Value::Number(seg.end));
                    path.push(Value::Object(s));
                }
            }
            m.insert("critical_path".to_string(), Value::Array(path));

            // Primary blame: the incident names the fault (node + kind,
            // from the watchdog's hypothesis); the window analysis adds
            // the makespan verdict. Fall back to the analyzer's critical
            // node when the incident carries no node scope.
            let node = obj
                .get("nodes")
                .and_then(Value::as_array)
                .and_then(|ns| ns.first())
                .and_then(Value::as_f64)
                .or_else(|| {
                    analysis
                        .iterations
                        .iter()
                        .map(|it| it.critical_node as f64)
                        .next()
                });
            let verdict = verdicts
                .iter()
                .max_by_key(|(_, n)| **n)
                .map(|(k, _)| k.to_string())
                .or_else(|| {
                    obj.get("blame")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                });
            let mut pb = BTreeMap::new();
            if let Some(n) = node {
                pb.insert("node".to_string(), Value::Number(n));
            }
            if let Some(kind) = obj.get("kind").and_then(Value::as_str) {
                pb.insert("kind".to_string(), Value::String(kind.to_string()));
            }
            if let Some(v) = verdict {
                pb.insert("verdict".to_string(), Value::String(v));
            }
            m.insert("primary_blame".to_string(), Value::Object(pb));

            // Eq-(8) audit rows of the iterations the window touches.
            // Decision records carry no timestamp, so the join is by the
            // iteration tags present on the captured events.
            let iters: BTreeSet<u64> = cap.events.iter().filter_map(|e| e.iter).collect();
            // Canonical `(iteration, node, bytes)` order — input order is
            // engine-dependent append order when rows come from a live
            // `AuditLog`, and the document must not depend on it.
            let mut rows: Vec<(usize, usize, String)> = decisions
                .iter()
                .filter(|d| iters.contains(&(d.iteration as u64)))
                .map(|d| (d.iteration, d.node, d.to_value().to_json_string()))
                .collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let rows: Vec<Value> = rows
                .iter()
                .map(|(_, _, l)| serde_json::from_str(l).expect("rendered row reparses"))
                .collect();
            m.insert("decisions".to_string(), Value::Array(rows));

            // Profiler frames overlapping the window.
            let overlapping: Vec<Value> = frames
                .iter()
                .filter(|f| f.t1 > cap.t0 && f.t0 < cap.t1)
                .map(frame_value)
                .collect();
            m.insert("frames".to_string(), Value::Array(overlapping));
            m.insert("folds".to_string(), Value::Array(cap.folds.clone()));
        }
        entries.push((id, Value::Object(m)));
    }
    entries.sort_by_key(|(id, _)| *id);

    let mut root = BTreeMap::new();
    root.insert(
        "schema".to_string(),
        Value::String(POSTMORTEM_SCHEMA.to_string()),
    );
    root.insert(
        "incidents".to_string(),
        Value::Array(entries.into_iter().map(|(_, v)| v).collect()),
    );
    root.insert(
        "captures".to_string(),
        Value::Number(captures.len() as f64),
    );
    Value::Object(root)
}

/// Renders `postmortem.json` for the terminal: one block per incident
/// with the fault, the window, the primary blame, and the top critical-
/// path hops — the `prs postmortem <dir>` report body.
pub fn summary(doc: &Value) -> String {
    let mut out = String::new();
    let incidents = doc
        .as_object()
        .and_then(|o| o.get("incidents"))
        .and_then(Value::as_array);
    let Some(incidents) = incidents else {
        out.push_str("postmortem: no incidents\n");
        return out;
    };
    if incidents.is_empty() {
        out.push_str("postmortem: no incidents\n");
        return out;
    }
    for entry in incidents {
        let Some(e) = entry.as_object() else { continue };
        let inc = e.get("incident").and_then(Value::as_object);
        let get_s = |o: Option<&BTreeMap<String, Value>>, k: &str| {
            o.and_then(|o| o.get(k)).and_then(Value::as_str).unwrap_or("?").to_string()
        };
        let get_n = |o: Option<&BTreeMap<String, Value>>, k: &str| {
            o.and_then(|o| o.get(k)).and_then(Value::as_f64)
        };
        let id = get_n(inc, "id").map_or("?".into(), |v| format!("{v}"));
        out.push_str(&format!(
            "incident #{id}: {} ({}), severity {}\n",
            get_s(inc, "kind"),
            get_s(inc, "blame"),
            get_s(inc, "severity"),
        ));
        if let (Some(t0), Some(t1)) = (get_n(inc, "t0"), get_n(inc, "t1")) {
            out.push_str(&format!("  incident window: t={t0:.3}..{t1:.3}s"));
            if let Some(td) = get_n(inc, "t_detect") {
                out.push_str(&format!(", detected t={td:.3}s"));
            }
            out.push('\n');
        }
        let pb = e.get("primary_blame").and_then(Value::as_object);
        if pb.is_some() {
            let node = get_n(pb, "node").map_or("?".into(), |v| format!("{v}"));
            out.push_str(&format!(
                "  primary blame: node {node}, {} (window verdict: {})\n",
                get_s(pb, "kind"),
                get_s(pb, "verdict"),
            ));
        }
        if let Some(cap) = e.get("capture").and_then(Value::as_str) {
            let w = e.get("window").and_then(Value::as_object);
            out.push_str(&format!(
                "  capture: {cap}.jsonl — {} exact events, {} fold bins\n",
                get_n(w, "exact_events").unwrap_or(0.0),
                get_n(w, "folds").unwrap_or(0.0),
            ));
        } else {
            out.push_str("  capture: none (run did not record)\n");
        }
        if let Some(path) = e.get("critical_path").and_then(Value::as_array) {
            for seg in path.iter().take(4) {
                let s = seg.as_object();
                out.push_str(&format!(
                    "    critical: {} on node {} [{}] t={:.3}..{:.3}s\n",
                    get_s(s, "stage"),
                    get_n(s, "node").unwrap_or(-1.0),
                    get_s(s, "lane"),
                    get_n(s, "t0").unwrap_or(0.0),
                    get_n(s, "t1").unwrap_or(0.0),
                ));
            }
        }
        let decisions = e
            .get("decisions")
            .and_then(Value::as_array)
            .map_or(0, Vec::len);
        let frames = e.get("frames").and_then(Value::as_array).map_or(0, Vec::len);
        out.push_str(&format!(
            "  context: {decisions} Eq-8 decision rows, {frames} profile frames\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimTime;

    fn recorded_capture() -> obs::Capture {
        let bus = obs::EventBus::recording();
        for i in 0..10u64 {
            let t = i as f64 * 0.1;
            bus.span(
                "node0-sched",
                "map",
                SimTime::from_secs_f64(t),
                SimTime::from_secs_f64(t + 0.08),
            )
            .unwrap()
            .iteration(i as usize)
            .commit();
        }
        let rec = obs::Recorder::shadow(obs::RecorderConfig {
            window: 0.35,
            budget: 1024,
            rollup_period: 0.2,
        });
        rec.settle(&bus);
        rec.freeze(0.5, 1.0);
        rec.capture(0, 0.5, 1.0).unwrap()
    }

    fn incident_value(id: u64, capture: Option<&str>) -> Value {
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Value::Number(id as f64));
        m.insert("t0".to_string(), Value::Number(0.6));
        m.insert("t1".to_string(), Value::Number(0.9));
        m.insert("t_detect".to_string(), Value::Number(0.7));
        m.insert("kind".to_string(), Value::String("gpu-slowdown".into()));
        m.insert("blame".to_string(), Value::String("gpu-bound".into()));
        m.insert("severity".to_string(), Value::String("page".into()));
        m.insert(
            "nodes".to_string(),
            Value::Array(vec![Value::Number(0.0)]),
        );
        if let Some(c) = capture {
            m.insert("capture".to_string(), Value::String(c.to_string()));
        }
        Value::Object(m)
    }

    #[test]
    fn capture_jsonl_round_trips() {
        let cap = recorded_capture();
        let doc = capture_doc(&cap);
        assert_eq!(doc.name, "capture-0");
        assert_eq!(doc.incident, 0);
        assert_eq!(doc.events.len(), cap.events.len());
        assert_eq!(doc.folds.len(), cap.folds.len());
        assert!(!doc.folds.is_empty(), "pre-window history arrives as folds");
        assert!(parse_capture_jsonl("").is_err());
        assert!(parse_capture_jsonl("{\"schema\":\"nope\"}\n").is_err());
    }

    #[test]
    fn assemble_links_captures_and_scopes_decisions() {
        let cap = recorded_capture();
        let doc = capture_doc(&cap);
        let iters_in_window: BTreeSet<u64> =
            doc.events.iter().filter_map(|e| e.iter).collect();
        assert!(!iters_in_window.is_empty());
        let decisions: Vec<DecisionRecord> = (0..10)
            .map(|iter| {
                let v = serde_json::from_str(&format!(
                    "{{\"node\":0,\"iter\":{iter},\"p\":0.5}}"
                ))
                .unwrap();
                DecisionRecord::from_value(&v).unwrap()
            })
            .collect();
        let incidents = vec![incident_value(0, Some("capture-0"))];
        let pm = assemble(&[doc], &incidents, &decisions, &[]);
        let rendered = pm.to_json_string();
        assert!(rendered.contains(POSTMORTEM_SCHEMA));
        let entry = pm.as_object().unwrap()["incidents"].as_array().unwrap()[0]
            .as_object()
            .unwrap()
            .clone();
        assert_eq!(entry["capture"].as_str(), Some("capture-0"));
        let rows = entry["decisions"].as_array().unwrap();
        assert_eq!(rows.len(), iters_in_window.len(), "decisions join by iteration");
        let pb = entry["primary_blame"].as_object().unwrap();
        assert_eq!(pb["node"].as_f64(), Some(0.0));
        assert_eq!(pb["kind"].as_str(), Some("gpu-slowdown"));
        // Deterministic: assembling twice renders identical bytes.
        let cap2 = recorded_capture();
        let pm2 = assemble(
            &[capture_doc(&cap2)],
            &[incident_value(0, Some("capture-0"))],
            &decisions,
            &[],
        );
        assert_eq!(rendered, pm2.to_json_string());
    }

    #[test]
    fn summary_names_the_fault_and_capture() {
        let cap = recorded_capture();
        let pm = assemble(
            &[capture_doc(&cap)],
            &[incident_value(0, Some("capture-0"))],
            &[],
            &[],
        );
        let text = summary(&pm);
        assert!(text.contains("incident #0: gpu-slowdown"), "{text}");
        assert!(text.contains("primary blame: node 0, gpu-slowdown"), "{text}");
        assert!(text.contains("capture: capture-0.jsonl"), "{text}");
        let empty = assemble(&[], &[], &[], &[]);
        assert!(summary(&empty).contains("no incidents"));
    }
}
