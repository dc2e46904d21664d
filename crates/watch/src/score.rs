//! Scoring the watchdog against chaos ground truth.
//!
//! Chaos trials inject faults from a seeded `FaultPlan`, so — unlike any
//! production alerting stack — we know exactly what went wrong and when.
//! This module joins the incidents the watchdog fired against that ground
//! truth and emits `watch_score.json`: a per-fault-kind precision /
//! recall / median-time-to-detect matrix, gated in CI.
//!
//! Matching is by fault kind and time, not node identity: after a node
//! crash the survivors' ranks shift, so node numbers in post-crash alerts
//! are not comparable to the plan's. An incident matches a fault when the
//! fault's kind appears in the incident's hint set and the fault was
//! injected no later than the incident's end. Fault-free baseline runs
//! contribute a separate zero-alert check.

use crate::incident::Incident;
use serde::Value;
use std::collections::BTreeMap;

/// Schema tag stamped into `watch_score.json`.
pub const WATCH_SCORE_SCHEMA: &str = "prs-watch-score-v1";

/// The fault kinds the chaos grid can inject and the watchdog can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A worker node crash.
    NodeCrash,
    /// A master crash (failover).
    MasterCrash,
    /// A CPU slowdown window on one node.
    CpuSlowdown,
    /// A GPU slowdown window on one device.
    GpuSlowdown,
}

impl FaultKind {
    /// Every scoreable kind, in canonical order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::NodeCrash,
        FaultKind::MasterCrash,
        FaultKind::CpuSlowdown,
        FaultKind::GpuSlowdown,
    ];

    /// Stable string form used in `watch_score.json`.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash => "node-crash",
            FaultKind::MasterCrash => "master-crash",
            FaultKind::CpuSlowdown => "cpu-slowdown",
            FaultKind::GpuSlowdown => "gpu-slowdown",
        }
    }
}

/// One injected fault, extracted from the trial's `FaultPlan`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthFault {
    /// What was injected.
    pub kind: FaultKind,
    /// Victim node, when the fault names one.
    pub node: Option<u64>,
    /// Injection instant, virtual seconds (window start for slowdowns).
    pub at_secs: f64,
}

/// Everything the scorer needs from one chaos trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialWatch {
    /// Trial index within the grid.
    pub index: usize,
    /// Ground truth extracted from the injected plan.
    pub faults: Vec<GroundTruthFault>,
    /// Incidents the watchdog assembled over the chaotic run.
    pub incidents: Vec<Incident>,
    /// Alert count over the chaotic run.
    pub chaotic_alerts: usize,
    /// Alert count over the trial's fault-free baseline run — any nonzero
    /// value here is a false positive on a healthy cluster.
    pub fault_free_alerts: usize,
}

/// Aggregated detection quality for one fault kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindScore {
    /// Faults of this kind injected across the grid.
    pub injected: usize,
    /// Injected faults matched by at least one incident.
    pub detected: usize,
    /// Incidents whose primary hypothesis is this kind.
    pub incidents: usize,
    /// Of those incidents, how many matched a real fault.
    pub matched: usize,
    /// Time-to-detect per detected fault (incident detect instant minus
    /// injection instant), sorted ascending.
    pub ttds: Vec<f64>,
}

impl KindScore {
    /// Matched incidents over claimed incidents; vacuously 1 when the
    /// watchdog never claimed this kind.
    pub fn precision(&self) -> f64 {
        if self.incidents == 0 {
            1.0
        } else {
            self.matched as f64 / self.incidents as f64
        }
    }

    /// Detected faults over injected faults; vacuously 1 when the grid
    /// never injected this kind.
    pub fn recall(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.detected as f64 / self.injected as f64
        }
    }

    /// Median time-to-detect over the detected faults.
    pub fn median_ttd(&self) -> Option<f64> {
        if self.ttds.is_empty() {
            return None;
        }
        let n = self.ttds.len();
        Some(if n % 2 == 1 {
            self.ttds[n / 2]
        } else {
            0.5 * (self.ttds[n / 2 - 1] + self.ttds[n / 2])
        })
    }

    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("injected".to_string(), Value::Number(self.injected as f64));
        m.insert("detected".to_string(), Value::Number(self.detected as f64));
        m.insert("incidents".to_string(), Value::Number(self.incidents as f64));
        m.insert("matched".to_string(), Value::Number(self.matched as f64));
        m.insert("precision".to_string(), Value::Number(self.precision()));
        m.insert("recall".to_string(), Value::Number(self.recall()));
        m.insert(
            "median_ttd_s".to_string(),
            match self.median_ttd() {
                Some(t) => Value::Number(t),
                None => Value::Null,
            },
        );
        Value::Object(m)
    }
}

/// The full scoring matrix for one chaos grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchScore {
    /// Grid seed the score was computed under.
    pub seed: u64,
    /// Trials scored.
    pub trials: usize,
    /// Total alerts fired across every fault-free baseline run.
    pub fault_free_alerts: usize,
    /// Incidents whose primary hypothesis named no scoreable kind.
    pub unknown_incidents: usize,
    /// Per-kind quality.
    pub kinds: BTreeMap<FaultKind, KindScore>,
    /// CI floor on per-kind precision.
    pub precision_floor: f64,
    /// CI floor on per-kind recall.
    pub recall_floor: f64,
}

impl WatchScore {
    /// True when every kind clears both floors and no fault-free baseline
    /// fired a single alert — the CI gate.
    pub fn meets_floors(&self) -> bool {
        self.fault_free_alerts == 0
            && self.kinds.values().all(|k| {
                k.precision() >= self.precision_floor && k.recall() >= self.recall_floor
            })
    }

    /// Canonical `watch_score.json` (pretty, trailing newline). A pure
    /// function of the scored trials and seed.
    pub fn to_json(&self) -> String {
        let mut kinds = BTreeMap::new();
        for (k, v) in &self.kinds {
            kinds.insert(k.as_str().to_string(), v.to_value());
        }
        let mut m = BTreeMap::new();
        m.insert("schema".to_string(), Value::String(WATCH_SCORE_SCHEMA.to_string()));
        m.insert("seed".to_string(), Value::Number(self.seed as f64));
        m.insert("trials".to_string(), Value::Number(self.trials as f64));
        m.insert(
            "fault_free_alerts".to_string(),
            Value::Number(self.fault_free_alerts as f64),
        );
        m.insert(
            "unknown_incidents".to_string(),
            Value::Number(self.unknown_incidents as f64),
        );
        m.insert("kinds".to_string(), Value::Object(kinds));
        m.insert(
            "precision_floor".to_string(),
            Value::Number(self.precision_floor),
        );
        m.insert("recall_floor".to_string(), Value::Number(self.recall_floor));
        m.insert("meets_floors".to_string(), Value::Bool(self.meets_floors()));
        let mut out = Value::Object(m).to_json_string_pretty();
        out.push('\n');
        out
    }
}

const MATCH_EPS: f64 = 1e-9;

/// Joins every trial's incidents against its injected faults.
///
/// Precision counts each incident under its *primary* kind hypothesis
/// and checks whether any same-kind fault (by the incident's full hint
/// set) precedes the incident's end. Recall checks each fault against
/// every incident's hint set, so one merged incident covering a
/// co-injected node crash and master crash credits both.
pub fn score_trials(seed: u64, trials: &[TrialWatch]) -> WatchScore {
    let mut kinds: BTreeMap<FaultKind, KindScore> = FaultKind::ALL
        .iter()
        .map(|k| (*k, KindScore::default()))
        .collect();
    let mut fault_free_alerts = 0;
    let mut unknown_incidents = 0;

    for trial in trials {
        fault_free_alerts += trial.fault_free_alerts;
        // Precision: does each claimed incident correspond to a real fault?
        for inc in &trial.incidents {
            let Some(primary) = inc.kind.fault_kind() else {
                unknown_incidents += 1;
                continue;
            };
            let entry = kinds.get_mut(&primary).expect("all kinds present");
            entry.incidents += 1;
            let hinted: Vec<FaultKind> =
                inc.hints.iter().filter_map(|h| h.fault_kind()).collect();
            if trial.faults.iter().any(|f| {
                hinted.contains(&f.kind) && f.at_secs <= inc.t_end + MATCH_EPS
            }) {
                entry.matched += 1;
            }
        }
        // Recall + TTD: was each injected fault seen, and how fast?
        for fault in &trial.faults {
            let entry = kinds.get_mut(&fault.kind).expect("all kinds present");
            entry.injected += 1;
            let ttd = trial
                .incidents
                .iter()
                .filter(|inc| {
                    inc.hints.iter().any(|h| h.fault_kind() == Some(fault.kind))
                        && fault.at_secs <= inc.t_end + MATCH_EPS
                })
                .map(|inc| (inc.t_detect - fault.at_secs).max(0.0))
                .fold(f64::INFINITY, f64::min);
            if ttd.is_finite() {
                entry.detected += 1;
                entry.ttds.push(ttd);
            }
        }
    }
    for score in kinds.values_mut() {
        score.ttds.sort_by(f64::total_cmp);
    }
    WatchScore {
        seed,
        trials: trials.len(),
        fault_free_alerts,
        unknown_incidents,
        kinds,
        precision_floor: 0.9,
        recall_floor: 0.8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::Severity;
    use crate::FaultHint;
    use insight::Blame;

    fn incident(kind: FaultHint, hints: &[FaultHint], t_detect: f64, t_end: f64) -> Incident {
        Incident {
            id: 0,
            t_start: t_detect,
            t_end,
            t_detect,
            t_cause: t_detect,
            nodes: vec![],
            blame: Blame::Recovery,
            kind,
            hints: hints.to_vec(),
            alerts: vec![0],
            severity: Severity::Page,
            capture: None,
        }
    }

    fn fault(kind: FaultKind, at: f64) -> GroundTruthFault {
        GroundTruthFault { kind, node: Some(0), at_secs: at }
    }

    #[test]
    fn perfect_trial_scores_ones() {
        let trials = vec![TrialWatch {
            index: 0,
            faults: vec![fault(FaultKind::NodeCrash, 2.0)],
            incidents: vec![incident(FaultHint::NodeCrash, &[FaultHint::NodeCrash], 2.5, 3.0)],
            chaotic_alerts: 1,
            fault_free_alerts: 0,
        }];
        let score = score_trials(7, &trials);
        let k = &score.kinds[&FaultKind::NodeCrash];
        assert_eq!(k.precision(), 1.0);
        assert_eq!(k.recall(), 1.0);
        assert_eq!(k.median_ttd(), Some(0.5));
        assert!(score.meets_floors());
        assert!(score.to_json().contains("\"meets_floors\": true"));
    }

    #[test]
    fn merged_incident_credits_both_cocrashes() {
        let trials = vec![TrialWatch {
            index: 0,
            faults: vec![fault(FaultKind::NodeCrash, 2.0), fault(FaultKind::MasterCrash, 2.2)],
            incidents: vec![incident(
                FaultHint::NodeCrash,
                &[FaultHint::NodeCrash, FaultHint::MasterCrash],
                2.4,
                3.0,
            )],
            chaotic_alerts: 2,
            fault_free_alerts: 0,
        }];
        let score = score_trials(7, &trials);
        assert_eq!(score.kinds[&FaultKind::NodeCrash].recall(), 1.0);
        assert_eq!(score.kinds[&FaultKind::MasterCrash].recall(), 1.0);
        assert_eq!(score.kinds[&FaultKind::MasterCrash].incidents, 0);
        assert_eq!(score.kinds[&FaultKind::MasterCrash].precision(), 1.0);
    }

    #[test]
    fn phantom_incident_costs_precision_and_baseline_alerts_fail_the_gate() {
        let trials = vec![TrialWatch {
            index: 0,
            faults: vec![],
            incidents: vec![incident(FaultHint::NodeCrash, &[FaultHint::NodeCrash], 1.0, 2.0)],
            chaotic_alerts: 1,
            fault_free_alerts: 1,
        }];
        let score = score_trials(7, &trials);
        assert_eq!(score.kinds[&FaultKind::NodeCrash].precision(), 0.0);
        assert!(!score.meets_floors());
    }

    #[test]
    fn missed_fault_costs_recall() {
        let trials = vec![TrialWatch {
            index: 0,
            faults: vec![fault(FaultKind::CpuSlowdown, 0.0)],
            incidents: vec![],
            chaotic_alerts: 0,
            fault_free_alerts: 0,
        }];
        let score = score_trials(7, &trials);
        assert_eq!(score.kinds[&FaultKind::CpuSlowdown].recall(), 0.0);
        assert!(!score.meets_floors());
        assert_eq!(score.kinds[&FaultKind::CpuSlowdown].median_ttd(), None);
    }

    #[test]
    fn incident_before_fault_does_not_match() {
        let trials = vec![TrialWatch {
            index: 0,
            faults: vec![fault(FaultKind::NodeCrash, 5.0)],
            incidents: vec![incident(FaultHint::NodeCrash, &[FaultHint::NodeCrash], 1.0, 2.0)],
            chaotic_alerts: 1,
            fault_free_alerts: 0,
        }];
        let score = score_trials(7, &trials);
        assert_eq!(score.kinds[&FaultKind::NodeCrash].matched, 0);
        assert_eq!(score.kinds[&FaultKind::NodeCrash].detected, 0);
    }
}
