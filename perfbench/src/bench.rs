//! One op of a workload: its simulate and analyse calls (timed as
//! `wall_s`), its questions answered from disk (timed as `query_s`), and
//! the untimed correctness gate.

use crate::bundle;
use crate::procstat::{self, CpuTimes, Stopwatch};
use crate::timed::{TimedApp, TimedStore};
use crate::tracer::Tracer;
use crate::workloads::{Driver, Inputs, JobSpec, Workload, EPSILON, FUZZIFIER};
use obs::{AuditLog, MetricsRegistry, Obs};
use prs_apps::CMeans;
use prs_core::{
    run_elastic_observed, run_iterative_observed, run_resilient_observed, CheckpointStore,
    CheckpointableApp, JobConfig, JobError, JobMetrics, MemStore,
};
use prs_data::MatrixF32;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What the library is given beside the job itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// The workload's own setting: the full bundle and flight recorder on
    /// the observed workload, nothing elsewhere.
    Workload,
    /// Metrics registry and decision log only, to harvest virtual layer
    /// counters. Recording never moves virtual time.
    Counters,
    /// Nothing, not even on the observed workload.
    Nothing,
}

/// The answer an op is checked against: serial C-means on the same
/// points (`prs_apps::serial_cmeans`).
pub struct Reference {
    pub centers: MatrixF32,
    pub iterations: usize,
}

/// Virtual layer counters harvested from a metrics registry and decision
/// log.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub net_bytes: f64,
    pub block_wait_s: f64,
    pub map_errors: Vec<f64>,
    pub cpu_fractions: Vec<f64>,
}

pub struct JobOut {
    pub metrics: JobMetrics,
    pub makespan: f64,
    pub epochs: usize,
    pub ckpt_bytes: u64,
    pub sim_s: f64,
}

/// The observed workload's bundle, written and read back.
pub struct ObsOut {
    pub bundle_bytes: u64,
    pub recorder_peak: usize,
    pub answers: Option<bundle::Answers>,
}

pub struct OpOut {
    pub id: u64,
    pub wall_s: f64,
    pub query_s: f64,
    pub jobs: Vec<JobOut>,
    pub digest: u64,
    pub failures: Vec<String>,
    pub counters: Option<Counters>,
    pub obs: Option<ObsOut>,
    pub cpu: Option<CpuTimes>,
    pub steal_s: Option<f64>,
}

impl OpOut {
    pub fn virtual_compute_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.metrics.compute_seconds).sum()
    }
    pub fn virtual_makespan_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.makespan).sum()
    }
}

pub struct Bench {
    pub workload: Workload,
    pub inputs: Inputs,
    pub jobs: Vec<JobSpec>,
    pub reference: Reference,
    pub work: PathBuf,
    pub tracer: Arc<Tracer>,
    config: JobConfig,
}

/// Outcome of a simulate call, whichever driver ran it.
struct Sim {
    metrics: JobMetrics,
    makespan: f64,
    epochs: usize,
}

fn simulate<A: CheckpointableApp>(
    job: &JobSpec,
    config: JobConfig,
    app: Arc<A>,
    store: Arc<dyn CheckpointStore>,
    obs: Obs,
) -> Result<Sim, JobError> {
    match &job.driver {
        Driver::Iterative => run_iterative_observed(&job.spec, app, config, obs).map(|r| Sim {
            makespan: r.metrics.total_seconds,
            metrics: r.metrics,
            epochs: 1,
        }),
        Driver::Resilient => {
            run_resilient_observed(&job.spec, app, config, store, obs).map(|o| Sim {
                makespan: o.total_virtual_secs,
                epochs: o.attempts.len(),
                metrics: o.metrics,
            })
        }
        Driver::Elastic(plan) => {
            run_elastic_observed(&job.spec, app, config, store, plan, None, obs).map(|o| Sim {
                makespan: o.total_virtual_secs,
                epochs: o.attempts.len(),
                metrics: o.metrics,
            })
        }
    }
}

fn harvest(obs: &Obs) -> Counters {
    let samples = MetricsRegistry::parse_samples(&obs.metrics.to_prometheus());
    let sum = |family: &str| -> f64 {
        samples
            .iter()
            .filter(|(s, _)| s.split('{').next() == Some(family))
            .map(|(_, v)| v)
            .sum()
    };
    let decisions = obs.audit.records();
    Counters {
        net_bytes: sum("prs_net_bytes_total"),
        block_wait_s: sum("prs_block_wait_seconds_sum"),
        map_errors: decisions.iter().filter_map(|d| d.map_error()).collect(),
        cpu_fractions: decisions.iter().map(|d| d.cpu_fraction).collect(),
    }
}

fn merge(into: &mut Option<Counters>, c: Counters) {
    let acc = into.get_or_insert_with(Counters::default);
    acc.net_bytes += c.net_bytes;
    acc.block_wait_s += c.block_wait_s;
    acc.map_errors.extend(c.map_errors);
    acc.cpu_fractions.extend(c.cpu_fractions);
}

/// FNV-1a over the bits of every virtual result of an op.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn job(&mut self, j: &JobOut, centers: &MatrixF32) {
        let m = &j.metrics;
        self.f64(j.makespan);
        self.u64(j.epochs as u64);
        self.f64(m.total_seconds);
        self.f64(m.setup_seconds);
        self.f64(m.compute_seconds);
        self.u64(m.sim_events);
        self.u64(m.cpu_map_tasks);
        self.u64(m.gpu_map_tasks);
        for s in &m.iterations {
            for v in [s.map, s.shuffle, s.reduce, s.update] {
                self.f64(v);
            }
        }
        let r = &m.recovery;
        for v in [
            r.retries,
            r.reassignments,
            r.blocks_requeued,
            r.gpu_daemon_crashes,
            r.speculative_launched,
            r.speculative_won,
            r.speculative_wasted,
            r.node_crashes,
            r.master_failovers,
            r.checkpoints_written,
            r.restores,
        ] {
            self.u64(v);
        }
        self.f64(r.seconds_lost_to_faults);
        for &c in centers.as_slice() {
            self.u64(c.to_bits() as u64);
        }
    }
}

/// Largest coordinate difference tolerated between the runtime's centers
/// and the serial reference: the tolerance of the apps crate's own
/// runtime-vs-serial test. Summation trees differ, the math does not.
const CENTER_TOL: f32 = 1e-2;

/// Results queries shorter than this are repeated (at most
/// `QUERY_MAX_REPS` times) and their median reported.
const QUERY_MIN_S: f64 = 0.3;
const QUERY_MAX_REPS: usize = 50;

impl Bench {
    pub fn new(
        workload: Workload,
        inputs: Inputs,
        work: PathBuf,
        tracer: Arc<Tracer>,
    ) -> Result<Bench, String> {
        let config = workload.config();
        let (centers, history) = prs_apps::serial_cmeans(
            &inputs.points,
            inputs.k,
            FUZZIFIER,
            EPSILON,
            inputs.init_seed,
            workload.iterations(),
        );
        let reference = Reference {
            centers,
            iterations: history.len(),
        };
        // Faulted jobs place their events inside the fault-free run's
        // iteration phase.
        let jobs = if workload == Workload::FaultsElastic16 {
            let clean = run_iterative_observed(&inputs.base, inputs.app(), config, Obs::disabled())
                .map_err(|e| format!("fault-free probe: {e}"))?
                .metrics;
            inputs.jobs(clean.setup_seconds, clean.compute_seconds)
        } else {
            inputs.jobs(0.0, 0.0)
        };
        std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        Ok(Bench {
            workload,
            inputs,
            jobs,
            reference,
            work,
            tracer,
            config,
        })
    }

    fn bundle_dir(&self) -> PathBuf {
        self.work.join("bundle")
    }

    /// Runs one op. `traced` wraps the app and store and records spans.
    pub fn op(&self, id: u64, traced: bool, attach: Attach) -> OpOut {
        let tracer = if traced {
            self.tracer.clone()
        } else {
            Arc::new(Tracer::new(false))
        };
        tracer.set_op(id);
        let observed = self.workload == Workload::ObservedDynamic32 && attach == Attach::Workload;
        let mut out = OpOut {
            id,
            wall_s: 0.0,
            query_s: 0.0,
            jobs: Vec::new(),
            digest: 0,
            failures: Vec::new(),
            counters: None,
            obs: None,
            cpu: None,
            steal_s: None,
        };
        let steal0 = procstat::steal_s();
        let mut digest = Digest::new();
        let mut last_state = None;
        let mut cpu_total = Some(CpuTimes {
            user_s: 0.0,
            sys_s: 0.0,
        });
        let mut config = self.config;
        if !observed {
            config.recorder = obs::RecorderConfig::disabled();
            config.record_timeline = false;
        }
        for (j, job) in self.jobs.iter().enumerate() {
            // Untimed: a fresh model and store per job.
            let app = self.inputs.app();
            let obs = if observed {
                Obs::recording_with_recorder(obs::RecorderConfig::enabled(), false)
            } else if attach == Attach::Counters {
                Obs {
                    metrics: MetricsRegistry::recording(),
                    audit: AuditLog::recording(),
                    ..Obs::disabled()
                }
            } else {
                Obs::disabled()
            };
            let timed_store = traced
                .then(|| Arc::new(TimedStore::new(Arc::new(MemStore::new()), tracer.clone())));
            let store: Arc<dyn CheckpointStore> = match &timed_store {
                Some(s) => s.clone(),
                None => Arc::new(MemStore::new()),
            };

            let cpu0 = procstat::cpu_times();
            let t = Stopwatch::start();
            let sim = tracer.span("core.run", || {
                if traced {
                    let wrapped = Arc::new(TimedApp::new(app.clone(), tracer.clone()));
                    simulate(job, config, wrapped, store, obs.clone())
                } else {
                    simulate(job, config, app.clone(), store, obs.clone())
                }
            });
            let sim_s = t.host_s();
            cpu_total = match (cpu_total, cpu0, procstat::cpu_times()) {
                (Some(acc), Some(a), Some(b)) => {
                    let d = b.since(&a);
                    Some(CpuTimes {
                        user_s: acc.user_s + d.user_s,
                        sys_s: acc.sys_s + d.sys_s,
                    })
                }
                _ => None,
            };
            out.wall_s += sim_s;
            let sim = match sim {
                Ok(s) => s,
                Err(e) => {
                    out.failures.push(format!("job {j}: {e}"));
                    continue;
                }
            };
            if obs.metrics.is_enabled() {
                merge(&mut out.counters, harvest(&obs));
            }
            if observed {
                let dir = self.bundle_dir();
                // Untimed: clear the previous op's bundle.
                let _ = std::fs::remove_dir_all(&dir);
                let t = Stopwatch::start();
                let written = tracer.span("obs.export", || {
                    bundle::write(&dir, &obs, &sim.metrics.timeline)
                });
                out.wall_s += t.host_s();
                match written {
                    Ok(bytes) => {
                        out.obs = Some(ObsOut {
                            bundle_bytes: bytes,
                            recorder_peak: obs.recorder.summary().peak_retained,
                            answers: None,
                        })
                    }
                    Err(e) => out.failures.push(format!("job {j}: bundle: {e}")),
                }
            }
            let centers = app.centers();
            let jo = JobOut {
                makespan: sim.makespan,
                epochs: sim.epochs,
                ckpt_bytes: timed_store.map_or(0, |s| s.bytes()),
                sim_s,
                metrics: sim.metrics,
            };
            self.check_job(j, &jo, &app, &mut out.failures);
            digest.job(&jo, &centers);
            out.jobs.push(jo);
            last_state = Some(app.save_state());
        }
        out.digest = digest.0;
        out.cpu = cpu_total;
        out.steal_s = steal0.zip(procstat::steal_s()).map(|(a, b)| b - a);
        if let (Attach::Workload, true, Some(state)) = (attach, out.failures.is_empty(), last_state)
        {
            self.answer(&tracer, &mut out, &state);
        }
        out
    }

    fn check_job(&self, j: usize, jo: &JobOut, app: &CMeans, failures: &mut Vec<String>) {
        let iters = app.objective_history().len();
        if iters != self.reference.iterations {
            failures.push(format!(
                "job {j}: {iters} iteration(s), serial reference ran {}",
                self.reference.iterations
            ));
        }
        let centers = app.centers();
        let (got, want) = (centers.as_slice(), self.reference.centers.as_slice());
        // `all` rejects NaN, which a running maximum would skip.
        let close = got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(a, b)| (a - b).abs() < CENTER_TOL);
        if !close {
            let worst = got
                .iter()
                .zip(want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            failures.push(format!(
                "job {j}: centers differ from serial C-means (largest gap {worst})"
            ));
        }
        if !jo.metrics.recovery.speculation_reconciles() {
            failures.push(format!("job {j}: speculation counters do not reconcile"));
        }
        if !(jo.makespan.is_finite() && jo.makespan > 0.0 && jo.metrics.compute_seconds > 0.0) {
            failures.push(format!("job {j}: virtual times are not positive"));
        }
    }

    /// Answers the workload's questions from what the op left on disk:
    /// the bundle on the observed workload; elsewhere the persisted job
    /// metrics and model state, from which every point is labelled.
    fn answer(&self, tracer: &Tracer, out: &mut OpOut, state: &[u8]) {
        if self.workload == Workload::ObservedDynamic32 {
            let t = Stopwatch::start();
            let answers = bundle::query(&self.bundle_dir(), tracer);
            out.query_s = t.host_s();
            match answers {
                Ok(a) => {
                    if a.events == 0 || a.analyzed_iterations == 0 || a.profile_samples == 0 {
                        out.failures.push(
                            "bundle: re-read bundle has no events, iterations or samples".into(),
                        );
                    }
                    if a.postmortem_rebuilt != a.postmortem_written {
                        out.failures.push(
                            "bundle: postmortem rebuilt from disk differs from the written one"
                                .into(),
                        );
                    }
                    if let Some(o) = out.obs.as_mut() {
                        o.answers = Some(a);
                    }
                }
                Err(e) => out.failures.push(format!("bundle: {e}")),
            }
            return;
        }
        let dir = self.work.join("results");
        if let Err(e) = persist(&dir, out, state) {
            out.failures.push(format!("persisting results: {e}"));
            return;
        }
        // A short query is repeated until it has taken QUERY_MIN_S and its
        // median taken; traced runs answer once.
        let mut times = Vec::new();
        let answer = loop {
            let t = Stopwatch::start();
            let answer = query_results(&dir, &self.inputs, tracer);
            times.push(t.host_s());
            if tracer.is_enabled()
                || answer.is_err()
                || times.iter().sum::<f64>() >= QUERY_MIN_S
                || times.len() >= QUERY_MAX_REPS
            {
                break answer;
            }
        };
        times.sort_by(f64::total_cmp);
        out.query_s = times[times.len() / 2];
        match answer {
            Ok(a) => {
                let n = self.inputs.points.rows() as u64;
                if a.sizes.iter().sum::<u64>() != n {
                    out.failures.push(format!(
                        "labels: {} point(s) labelled, {n} expected",
                        a.sizes.iter().sum::<u64>()
                    ));
                }
                let compute: f64 = out.jobs.iter().map(|j| j.metrics.compute_seconds).sum();
                if (a.compute_s - compute).abs() > 1e-9 * compute {
                    out.failures.push(format!(
                        "results: re-read compute {} != {compute}",
                        a.compute_s
                    ));
                }
            }
            Err(e) => out.failures.push(format!("results: {e}")),
        }
    }

    /// Best-effort removal of the op scratch files.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Answers read back from persisted job results.
struct ResultAnswers {
    compute_s: f64,
    sizes: Vec<u64>,
}

fn persist(dir: &Path, out: &OpOut, state: &[u8]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let metrics: Vec<serde_json::Value> = out
        .jobs
        .iter()
        .map(|j| serde_json::to_value(&j.metrics).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let text =
        serde_json::to_string(&serde_json::Value::Array(metrics)).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("metrics.json"), text)
        .map_err(|e| format!("writing metrics.json: {e}"))?;
    std::fs::write(dir.join("model.bin"), state).map_err(|e| format!("writing model.bin: {e}"))
}

/// Re-reads the persisted results: the virtual compute time from the job
/// metrics, and a hard label for every input point from the model
/// restored through the app's own checkpoint codec.
fn query_results(dir: &Path, inputs: &Inputs, tracer: &Tracer) -> Result<ResultAnswers, String> {
    let (compute_s, model) = tracer.span("query.read", || -> Result<_, String> {
        let path = dir.join("metrics.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let compute_s = doc
            .as_array()
            .ok_or("metrics.json is not an array")?
            .iter()
            .map(|m| m.get("compute_seconds").and_then(serde_json::Value::as_f64))
            .sum::<Option<f64>>()
            .ok_or("metrics.json lacks compute_seconds")?;
        let path = dir.join("model.bin");
        let state = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let model = inputs.app();
        model.restore_state(&state);
        Ok((compute_s, model))
    })?;
    let sizes = tracer.span("apps.label", || {
        let mut sizes = vec![0u64; inputs.k];
        for label in model.harden(&inputs.points) {
            sizes[label as usize] += 1;
        }
        sizes
    });
    Ok(ResultAnswers { compute_s, sizes })
}
