//! Job orchestration: the two-level scheduler (master task scheduler +
//! per-node sub-task schedulers), device daemons, shuffle, reduce, and the
//! iterative driver — paper §III, Figures 1 and 2, end to end.

use crate::api::{DeviceClass, IterativeApp, Key, SpmdApp};
use crate::checkpoint::{Checkpoint, CheckpointStore, PartitionSpan};
use crate::cluster::ClusterSpec;
use crate::config::{CalibrationMode, JobConfig, SchedulingMode};
use crate::faults::NodeStall;
use crate::metrics::{JobMetrics, RecoveryCounters, StageTimes};
use crate::task::{split_fixed, split_range, Task, TaskResult};
use device::{CompletionBoard, FatNode};
use insight::CalibrationProfile;
use netsim::{shuffle, CollectiveSeq, Network, ShuffleItem};
use obs::{trace_ctx, DecisionId, DecisionRecord, Obs, TraceCtx};
use parking_lot::Mutex;
use roofline::model::DataResidency;
use roofline::profiles::DeviceProfile;
use roofline::schedule::{device_time, partition_across_nodes, split_multi_gpu, Workload};
use simtime::{Channel, RecvOutcome, Sim, SimCtx, SimError, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Why a job could not run (or crashed mid-simulation).
#[derive(Debug)]
pub enum JobError {
    /// The configuration is inconsistent with the cluster or application.
    InvalidConfig(String),
    /// The underlying simulation failed (deadlock, panic, event limit).
    Sim(SimError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::InvalidConfig(msg) => write!(f, "invalid job config: {msg}"),
            JobError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A completed job: the reduce outputs (gathered, sorted by key) plus all
/// measurements.
#[derive(Debug)]
pub struct JobResult<O> {
    /// Final outputs, sorted by key.
    pub outputs: Vec<(Key, O)>,
    /// Everything measured.
    pub metrics: JobMetrics,
}

/// Runs a single map/shuffle/reduce pass of `app` on `spec`.
pub fn run_job<A: SpmdApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
) -> Result<JobResult<A::Output>, JobError> {
    run_with_update(
        spec,
        app,
        config,
        Arc::new(|_| true),
        Obs::disabled(),
        RunHooks::default(),
    )
}

/// Like [`run_job`], with a live [`Obs`] bundle attached to every layer:
/// device daemons, comm fabric, the master scheduler, and the per-node
/// sub-task schedulers (including the decision audit log). Recording
/// never advances virtual time, so the metrics are bit-identical to an
/// unobserved run.
pub fn run_job_observed<A: SpmdApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    obs: Obs,
) -> Result<JobResult<A::Output>, JobError> {
    run_with_update(spec, app, config, Arc::new(|_| true), obs, RunHooks::default())
}

/// Runs an iterative job: map/shuffle/reduce, then [`IterativeApp::update`]
/// on the gathered outputs, looping until convergence or
/// `config.max_iterations`.
pub fn run_iterative<A: IterativeApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
) -> Result<JobResult<A::Output>, JobError> {
    run_iterative_observed(spec, app, config, Obs::disabled())
}

/// Like [`run_iterative`], with a live [`Obs`] bundle (see
/// [`run_job_observed`]).
pub fn run_iterative_observed<A: IterativeApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    obs: Obs,
) -> Result<JobResult<A::Output>, JobError> {
    let hook = app.clone();
    run_with_update(
        spec,
        app,
        config,
        Arc::new(move |outputs| hook.update(outputs)),
        obs,
        RunHooks::default(),
    )
}

pub(crate) type UpdateFn<A> =
    Arc<dyn Fn(&[(Key, <A as SpmdApp>::Output)]) -> bool + Send + Sync>;

enum CtrlMsg {
    /// A partition assignment. `id` is unique per *attempt*: a re-sent or
    /// reassigned partition carries a fresh id, so a late acknowledgement
    /// of an abandoned attempt can never confirm the wrong placement.
    Partition { id: u64, range: Range<usize> },
    /// End of assignment: the ids this node must actually execute (its
    /// other received assignments were reassigned elsewhere meanwhile).
    Done { confirmed: Vec<u64> },
}

/// Per-node accumulation shared between the simulation and the caller.
struct Collected<O> {
    outputs: Vec<(Key, O)>,
    per_node_iters: Vec<Vec<StageTimes>>,
    setup_end: Vec<f64>,
    p_used: Vec<Option<f64>>,
    cpu_map_tasks: u64,
    gpu_map_tasks: u64,
    interrupted: bool,
    handoff: bool,
    paused: bool,
}

/// Rank 0's per-iteration decision, broadcast so every node agrees on
/// whether to continue, stop, or abandon the attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// Not converged: run another iteration.
    Continue,
    /// Converged: this iteration's outputs are final.
    Converged,
    /// The attempt hit its scheduled crash time (or blew a drain
    /// deadline): the iteration's update is discarded and the
    /// resilient/elastic driver takes over.
    Aborted,
    /// The attempt reached a scheduled membership boundary gracefully:
    /// the iteration's update *was* applied and the elastic driver
    /// continues from the live model state on the new cluster.
    Paused,
}

/// Checkpoint cadence and sink for one attempt, armed by the resilient
/// driver. Rank 0's sub-task scheduler writes a [`Checkpoint`] through
/// `store` after every `interval`-th *cumulative* iteration (host-side
/// only — writing never advances the virtual clock).
pub(crate) struct CheckpointHooks {
    /// Cumulative iterations between checkpoints (>= 1).
    pub interval: u64,
    /// Where checkpoints go.
    pub store: Arc<dyn CheckpointStore>,
    /// Serializes the application's model state.
    pub save_state: Arc<dyn Fn() -> Vec<u8> + Send + Sync>,
    /// Iterations completed before this attempt started (checkpoint
    /// `iteration` fields are cumulative across recovery epochs).
    pub base_iteration: u64,
    /// Cumulative virtual seconds consumed before this attempt started.
    pub base_secs: f64,
    /// The master's partition plan, recorded into every checkpoint.
    pub partition_map: Vec<PartitionSpan>,
    /// The fault plan's RNG cursor, recorded into every checkpoint.
    pub rng_seed: u64,
}

/// Driver-side hooks for one simulation attempt (recovery epoch). The
/// plain entry points run with `RunHooks::default()`; the resilient
/// driver arms the epoch's first scheduled crash time and the checkpoint
/// sink.
#[derive(Default)]
pub(crate) struct RunHooks {
    /// Abort the attempt at the first iteration boundary at or after this
    /// virtual time (attempt-local seconds) — how a node/master crash
    /// manifests inside one epoch's simulation.
    pub abort_at: Option<f64>,
    /// Checkpointing, when armed.
    pub checkpoint: Option<CheckpointHooks>,
    /// Pause the attempt at the first iteration boundary at or after this
    /// virtual time (attempt-local seconds) — how a scheduled membership
    /// change (drain start, scale-out admission) manifests inside one
    /// epoch. Unlike `abort_at`, the boundary's model update is applied
    /// before the pause.
    pub finish_at: Option<f64>,
    /// Drain deadline (attempt-local seconds): a paused boundary *past*
    /// this instant means the drain overran its grace window, so the
    /// attempt aborts instead (checkpoint handoff) and the update is
    /// discarded.
    pub finish_deadline: Option<f64>,
    /// Stable node id simulated at each rank. `None` means the identity
    /// mapping (a fixed cluster). Lane names, stack frames, and audit
    /// rows use the stable id so evicted nodes never shift the
    /// attribution of later events; collectives and channels stay in the
    /// contiguous rank space.
    pub node_ids: Option<Arc<Vec<usize>>>,
}

/// A recovery (or resilience-bookkeeping) action taken by the runtime.
///
/// Every path funnels through [`record_recovery`] so the
/// [`RecoveryCounters`] and the event bus can never drift apart — the
/// `prs top` recovery blame is only as good as this single choke point.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecoveryAction {
    /// A partition assignment re-sent to the same node after a timeout.
    Retry {
        /// Attempt id of the timed-out assignment.
        partition: u64,
        /// The unresponsive node.
        target: usize,
        /// Retry number (1-based).
        attempt: u32,
    },
    /// A partition moved to the next node after the retry budget ran out.
    Reassign {
        /// Attempt id of the abandoned assignment.
        partition: u64,
        /// The node that missed its deadline.
        from: usize,
        /// The node receiving the partition next.
        to: usize,
    },
    /// First death report from a GPU's daemons: the card itself died.
    GpuCrash {
        /// GPU index within the node.
        gpu: usize,
    },
    /// One GPU stream daemon died (fires per daemon, with the kernel time
    /// its in-flight launch lost).
    GpuDaemonDown {
        /// GPU index within the node.
        gpu: usize,
        /// Virtual seconds of kernel work lost.
        lost_secs: f64,
    },
    /// A task re-queued from a dead GPU onto surviving devices.
    BlockRequeued {
        /// GPU index the task was rescued from.
        gpu: usize,
    },
    /// A speculative backup launched against a straggling map block.
    SpecLaunch {
        /// The racing task id.
        task: u64,
    },
    /// A speculative backup finished before its primary.
    SpecWin {
        /// The racing task id.
        task: u64,
    },
    /// A speculative backup lost the race or was cancelled in the queue.
    SpecWasted {
        /// The racing task id.
        task: u64,
    },
    /// A checkpoint serialized after a global reduce (bookkeeping, not
    /// recovery — [`RecoveryCounters::is_clean`] ignores it).
    CheckpointWritten {
        /// Cumulative iteration the checkpoint captures.
        iteration: u64,
    },
}

/// The single choke point pairing every recovery counter bump with its
/// event-bus emission (same kind strings the insight layer's blame
/// attribution matches on).
pub(crate) fn record_recovery(
    now: SimTime,
    recovery: &Mutex<RecoveryCounters>,
    obs: &Obs,
    lane: &str,
    action: RecoveryAction,
) {
    {
        let mut r = recovery.lock();
        match action {
            RecoveryAction::Retry { .. } => r.retries += 1,
            RecoveryAction::Reassign { .. } => r.reassignments += 1,
            RecoveryAction::GpuCrash { .. } => r.gpu_daemon_crashes += 1,
            RecoveryAction::GpuDaemonDown { lost_secs, .. } => {
                r.seconds_lost_to_faults += lost_secs;
            }
            RecoveryAction::BlockRequeued { .. } => r.blocks_requeued += 1,
            RecoveryAction::SpecLaunch { .. } => r.speculative_launched += 1,
            RecoveryAction::SpecWin { .. } => r.speculative_won += 1,
            RecoveryAction::SpecWasted { .. } => r.speculative_wasted += 1,
            RecoveryAction::CheckpointWritten { .. } => r.checkpoints_written += 1,
        }
    }
    match action {
        RecoveryAction::Retry {
            partition,
            target,
            attempt,
        } => {
            if let Some(d) = obs.bus.event(lane, "retry", now) {
                d.partition(partition as usize)
                    .attr("target", target as f64)
                    .attr("attempt", f64::from(attempt))
                    .commit();
            }
        }
        RecoveryAction::Reassign { partition, from, to } => {
            if let Some(d) = obs.bus.event(lane, "reassign", now) {
                d.partition(partition as usize)
                    .attr("from", from as f64)
                    .attr("to", to as f64)
                    .commit();
            }
        }
        RecoveryAction::GpuCrash { gpu } => {
            if let Some(d) = obs.bus.event(lane, "gpu-crash", now) {
                d.attr("gpu", gpu as f64).commit();
            }
        }
        RecoveryAction::GpuDaemonDown { gpu, lost_secs } => {
            if let Some(d) = obs.bus.event(lane, "gpu-daemon-down", now) {
                d.attr("gpu", gpu as f64).attr("lost_s", lost_secs).commit();
            }
        }
        RecoveryAction::BlockRequeued { gpu } => {
            if let Some(d) = obs.bus.event(lane, "block-requeued", now) {
                d.attr("gpu", gpu as f64).commit();
            }
        }
        RecoveryAction::SpecLaunch { task } => {
            if let Some(d) = obs.bus.event(lane, "spec-launch", now) {
                d.attr("task", task as f64).commit();
            }
        }
        RecoveryAction::SpecWin { task } => {
            if let Some(d) = obs.bus.event(lane, "spec-win", now) {
                d.attr("task", task as f64).commit();
            }
        }
        RecoveryAction::SpecWasted { task } => {
            if let Some(d) = obs.bus.event(lane, "spec-wasted", now) {
                d.attr("task", task as f64).commit();
            }
        }
        RecoveryAction::CheckpointWritten { iteration } => {
            if let Some(d) = obs.bus.event(lane, "checkpoint", now) {
                d.attr("iteration", iteration as f64).commit();
            }
        }
    }
}

/// The master's partition plan: each node's contiguous share of the input
/// (heterogeneity-weighted when configured), cut into
/// `partitions_per_node` partitions. Pure function of the cluster and
/// config — shared by the master loop and the resilient driver's
/// checkpoint metadata so the recorded plan always matches the real one.
pub(crate) fn partition_plan(
    profiles: &[DeviceProfile],
    workload: &Workload,
    total_items: usize,
    config: &JobConfig,
) -> Vec<(usize, Range<usize>)> {
    let weights = if config.hetero_aware_partitioning {
        partition_across_nodes(profiles, workload, total_items as u64)
    } else {
        let n = profiles.len() as u64;
        let base = total_items as u64 / n;
        let extra = total_items as u64 % n;
        (0..n).map(|i| base + u64::from(i < extra)).collect()
    };
    let mut plan: Vec<(usize, Range<usize>)> = Vec::new();
    let mut start = 0usize;
    for (rank, &items) in weights.iter().enumerate() {
        let node_range = start..start + items as usize;
        start = node_range.end;
        for part in split_range(node_range, config.partitions_per_node) {
            plan.push((rank, part));
        }
    }
    plan
}

fn validate<A: SpmdApp>(spec: &ClusterSpec, app: &A, config: &JobConfig) -> Result<(), JobError> {
    if spec.is_empty() {
        return Err(JobError::InvalidConfig("cluster has no nodes".into()));
    }
    let needs_gpu = !matches!(config.scheduling, SchedulingMode::CpuOnly);
    if needs_gpu {
        if config.gpus_per_node == 0 {
            return Err(JobError::InvalidConfig("gpus_per_node must be >= 1".into()));
        }
        if let Some(bad) = spec
            .nodes
            .iter()
            .find(|n| n.gpus.len() < config.gpus_per_node)
        {
            return Err(JobError::InvalidConfig(format!(
                "scheduling mode needs {} GPU(s) but node profile '{}' has {}",
                config.gpus_per_node,
                bad.name,
                bad.gpus.len()
            )));
        }
    }
    if app.num_items() == 0 {
        return Err(JobError::InvalidConfig("application has no input".into()));
    }
    if config.partitions_per_node == 0 {
        return Err(JobError::InvalidConfig(
            "partitions_per_node must be >= 1".into(),
        ));
    }
    if config.gpu_streams == 0 && needs_gpu {
        return Err(JobError::InvalidConfig("gpu_streams must be >= 1".into()));
    }
    if config.blocks_per_core == 0 {
        return Err(JobError::InvalidConfig("blocks_per_core must be >= 1".into()));
    }
    if config.gpu_blocks_per_partition == 0 && needs_gpu {
        return Err(JobError::InvalidConfig(
            "gpu_blocks_per_partition must be >= 1".into(),
        ));
    }
    if config.max_iterations == 0 {
        return Err(JobError::InvalidConfig("max_iterations must be >= 1".into()));
    }
    if let SchedulingMode::Static {
        p_override: Some(p),
    } = config.scheduling
    {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(JobError::InvalidConfig(format!(
                "static CPU fraction {p} out of [0,1]"
            )));
        }
    }
    if let SchedulingMode::Dynamic { block_items } = config.scheduling {
        if block_items == 0 {
            return Err(JobError::InvalidConfig(
                "dynamic block_items must be >= 1".into(),
            ));
        }
    }
    if let Some(t) = config.partition_timeout_secs {
        if !t.is_finite() || t <= 0.0 {
            return Err(JobError::InvalidConfig(format!(
                "partition_timeout_secs {t} must be positive and finite"
            )));
        }
    }
    if let CalibrationMode::Online { alpha } = config.calibration {
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
            return Err(JobError::InvalidConfig(format!(
                "calibration alpha {alpha} out of [0,1]"
            )));
        }
        // Calibration re-solves Equation (8); it is meaningless where the
        // split is pinned (override) or emerges from polling (dynamic).
        if !matches!(
            config.scheduling,
            SchedulingMode::Static { p_override: None }
        ) {
            return Err(JobError::InvalidConfig(
                "online calibration requires Static scheduling without p_override".into(),
            ));
        }
    }
    if let Some(m) = config.speculation_lag_multiplier {
        if !m.is_finite() || m <= 1.0 {
            return Err(JobError::InvalidConfig(format!(
                "speculation_lag_multiplier {m} must be finite and > 1"
            )));
        }
    }
    if let Err(msg) = spec.faults.validate() {
        return Err(JobError::InvalidConfig(format!("fault plan: {msg}")));
    }
    if spec.faults.has_crash_faults() {
        return Err(JobError::InvalidConfig(
            "node/master crash faults require the epoch-based resilient driver \
             (run_resilient); the plain drivers cannot survive them"
                .into(),
        ));
    }
    if let Some(max) = spec.faults.max_node_ref() {
        if max >= spec.len() {
            return Err(JobError::InvalidConfig(format!(
                "fault plan references node {max} but the cluster has {} nodes",
                spec.len()
            )));
        }
    }
    Ok(())
}

pub(crate) fn run_with_update<A: SpmdApp>(
    spec: &ClusterSpec,
    app: Arc<A>,
    config: JobConfig,
    update: UpdateFn<A>,
    obs: Obs,
    hooks: RunHooks,
) -> Result<JobResult<A::Output>, JobError> {
    validate(spec, app.as_ref(), &config)?;
    let hooks = Arc::new(hooks);
    let n = spec.len();
    let mut sim = Sim::new();

    // Stable node ids: lane names and attribution follow the id, while
    // channels/collectives use the contiguous rank. Identity on plain
    // fixed-cluster runs, so their artifacts are byte-unchanged.
    let node_ids: Vec<usize> = match &hooks.node_ids {
        Some(ids) => {
            assert_eq!(ids.len(), n, "node_ids must map every rank exactly once");
            ids.as_ref().clone()
        }
        None => (0..n).collect(),
    };
    let nodes: Vec<Arc<FatNode>> = spec
        .nodes
        .iter()
        .enumerate()
        .map(|(rank, prof)| FatNode::new(node_ids[rank], prof.clone(), spec.overheads))
        .collect();
    let timeline = config.record_timeline.then(device::Timeline::new);
    if let Some(t) = &timeline {
        for node in &nodes {
            node.attach_timeline(t);
        }
    }
    if obs.is_enabled() {
        for node in &nodes {
            node.attach_obs(&obs);
        }
    }

    // Arm the failure scenario on every layer before the clock starts:
    // device slowdown/crash state, then fabric disruption windows.
    let faults = spec.faults.clone();
    for (rank, node) in nodes.iter().enumerate() {
        node.cpu.set_slowdowns(faults.cpu_windows(rank));
        for (g, gpu) in node.gpus.iter().enumerate() {
            gpu.set_crash_at(faults.gpu_crash_at(rank, g));
            gpu.set_slowdowns(faults.gpu_windows(rank, g));
        }
    }
    let network = Network::new("data", n, spec.network);
    network.set_disruptions(faults.link_disruptions());
    if obs.is_enabled() {
        network.attach_obs(obs.clone());
    }

    let ctrl: Vec<Channel<CtrlMsg>> = (0..n)
        .map(|r| Channel::new(&format!("ctrl{r}")))
        .collect();
    // Acknowledgement path from the sub-task schedulers back to the
    // master: (rank, attempt id).
    let acks: Channel<(usize, u64)> = Channel::new("acks");
    let recovery: Arc<Mutex<RecoveryCounters>> = Arc::new(Mutex::new(RecoveryCounters::default()));

    let collect: Arc<Mutex<Collected<A::Output>>> = Arc::new(Mutex::new(Collected {
        outputs: Vec::new(),
        per_node_iters: vec![Vec::new(); n],
        setup_end: vec![0.0; n],
        p_used: vec![None; n],
        cpu_map_tasks: 0,
        gpu_map_tasks: 0,
        interrupted: false,
        handoff: false,
        paused: false,
    }));

    // Master: the first-level task scheduler. Every partition assignment
    // must be acknowledged; with `partition_timeout_secs` set, a node that
    // misses the deadline is retried `max_partition_retries` times, then
    // the partition is reassigned round-robin to the next node — the
    // paper's master augmented with straggler resilience.
    {
        let ctrl = ctrl.clone();
        let acks = acks.clone();
        let app = app.clone();
        let profiles = spec.nodes.clone();
        let latency = spec.network.latency;
        let dispatch = spec.overheads.task_dispatch;
        let recovery = recovery.clone();
        let obs = obs.clone();
        sim.spawn("master", move |ctx| async move {
            let plan = partition_plan(&profiles, &app.workload(), app.num_items(), &config);
            let n = ctrl.len();
            let timeout = config.partition_timeout_secs.map(SimTime::from_secs_f64);
            let mut confirmed: Vec<Vec<u64>> = vec![Vec::new(); n];
            let mut next_id = 0u64;
            for (home, part) in plan {
                let mut target = home;
                let mut attempts = 0u32;
                let mut hops = 0usize;
                loop {
                    let id = next_id;
                    next_id += 1;
                    ctx.hold(dispatch).await;
                    ctrl[target].send_delayed(
                        &ctx,
                        CtrlMsg::Partition {
                            id,
                            range: part.clone(),
                        },
                        latency,
                    );
                    if let Some(d) = obs.bus.event("master", "assign", ctx.now()) {
                        d.partition(id as usize)
                            .attr("target", target as f64)
                            .attr("items", part.len() as f64)
                            .commit();
                    }
                    // Control-plane flow: pairs with the worker's
                    // `msg-recv` on its sched lane. The attempt id is
                    // unique per send, so retries/reassignments each get
                    // their own flow and conservation holds exactly.
                    if let Some(d) = obs.bus.event("master", "msg-send", ctx.now()) {
                        d.partition(id as usize)
                            .attr("flow", trace_ctx::flow_id(trace_ctx::CONTROL_RANK, target as u64, id) as f64)
                            .attr("dst", target as f64)
                            .attr("items", part.len() as f64)
                            .commit();
                    }
                    // After two full passes over the cluster every node has
                    // had its retry budget twice; at that point the master
                    // waits unconditionally — termination beats detection.
                    let wait_forever = timeout.is_none() || hops >= 2 * n;
                    let acked = if wait_forever {
                        loop {
                            match acks.recv(&ctx).await {
                                Some((_, aid)) if aid == id => break true,
                                Some(_) => continue, // stale ack of an abandoned attempt
                                None => break false,
                            }
                        }
                    } else {
                        let deadline = ctx.now() + timeout.expect("timeout set");
                        loop {
                            match acks.recv_deadline(&ctx, deadline).await {
                                RecvOutcome::Msg((_, aid)) if aid == id => break true,
                                RecvOutcome::Msg(_) => continue,
                                RecvOutcome::TimedOut | RecvOutcome::Closed => break false,
                            }
                        }
                    };
                    if acked {
                        confirmed[target].push(id);
                        break;
                    }
                    if wait_forever {
                        break; // ack channel closed: simulation is ending
                    }
                    recovery.lock().seconds_lost_to_faults +=
                        timeout.expect("timeout set").as_secs_f64();
                    if attempts < config.max_partition_retries {
                        attempts += 1;
                        record_recovery(
                            ctx.now(),
                            &recovery,
                            &obs,
                            "master",
                            RecoveryAction::Retry {
                                partition: id,
                                target,
                                attempt: attempts,
                            },
                        );
                    } else {
                        attempts = 0;
                        hops += 1;
                        let from = target;
                        target = (target + 1) % n;
                        record_recovery(
                            ctx.now(),
                            &recovery,
                            &obs,
                            "master",
                            RecoveryAction::Reassign {
                                partition: id,
                                from,
                                to: target,
                            },
                        );
                    }
                }
            }
            for (rank, ch) in ctrl.iter().enumerate() {
                ch.send_delayed(
                    &ctx,
                    CtrlMsg::Done {
                        confirmed: std::mem::take(&mut confirmed[rank]),
                    },
                    latency,
                );
            }
        });
    }

    // Per-node runtime: sub-task scheduler (worker) + device daemons.
    for rank in 0..n {
        let node = nodes[rank].clone();
        // In dynamic mode both device classes poll one shared queue; in
        // the static modes each class has its own.
        let shared = matches!(config.scheduling, SchedulingMode::Dynamic { .. });
        let cpu_q: Channel<Task<A::Inter>> = Channel::new(&format!("n{rank}-cpuq"));
        let gpu_q: Channel<Task<A::Inter>> = if shared {
            cpu_q.clone()
        } else {
            Channel::new(&format!("n{rank}-gpuq"))
        };
        let results: Channel<TaskResult<A::Inter, A::Output>> =
            Channel::new(&format!("n{rank}-results"));
        let ready: Channel<()> = Channel::new(&format!("n{rank}-ready"));
        // First-completion-wins scoreboard arbitrating speculative backup
        // copies against their primaries (host-side only; see `race`).
        let board = Arc::new(CompletionBoard::new());

        let staged = app.workload().residency == DataResidency::Staged;

        // CPU pollers: one per core (the paper's "one mapper or reducer on
        // each CPU core").
        if !matches!(config.scheduling, SchedulingMode::GpuOnly) {
            for core in 0..node.cpu.spec.cores {
                let node = node.clone();
                let app = app.clone();
                let q = cpu_q.clone();
                let results = results.clone();
                let board = board.clone();
                sim.spawn(&format!("n{rank}-cpu{core}"), move |ctx| async move {
                    cpu_poller(&ctx, &node, app.as_ref(), &q, &results, &board).await;
                });
            }
        }

        // GPU stream workers: one daemon (with `gpu_streams` streams) per
        // engaged GPU — the paper's "one daemon thread for each GPU card",
        // as one simulation task per stream.
        if !matches!(config.scheduling, SchedulingMode::CpuOnly) {
            for g in 0..config.gpus_per_node {
                let gpu = node.gpus[g].clone();
                for stream in 0..config.gpu_streams {
                    let node = node.clone();
                    let gpu = gpu.clone();
                    let app = app.clone();
                    let q = gpu_q.clone();
                    let results = results.clone();
                    let ready = ready.clone();
                    let board = board.clone();
                    sim.spawn(&format!("n{rank}-gpu{g}-s{stream}"), move |ctx| async move {
                        gpu_stream_worker(
                            &ctx, &node, &gpu, g, app.as_ref(), &q, &results, &ready, config,
                            staged, &board,
                        )
                        .await;
                    });
                }
            }
        }

        // The sub-task scheduler.
        let comm = network.communicator(rank);
        let ctrl_ch = ctrl[rank].clone();
        let acks_ch = acks.clone();
        let stalls = faults.stalls_for(rank);
        let app = app.clone();
        let update = update.clone();
        let collect = collect.clone();
        let recovery = recovery.clone();
        let obs = obs.clone();
        let hooks = hooks.clone();
        sim.spawn(&format!("n{rank}-worker"), move |ctx| async move {
            worker_body(
                &ctx, rank, &node, comm, ctrl_ch, acks_ch, stalls, cpu_q, gpu_q, results, ready,
                app, config, update, collect, recovery, obs, board, hooks,
            )
            .await;
        });
    }

    let report = sim.run().map_err(JobError::Sim)?;

    // The simulation is over: every event is committed, so the recorder
    // can settle — final ingest, then window/budget eviction over the
    // complete (fully deterministic) set.
    obs.recorder.settle(&obs.bus);

    let collected = Arc::try_unwrap(collect)
        .ok()
        .expect("all simulation processes have finished")
        .into_inner();

    let iterations_done = collected
        .per_node_iters
        .iter()
        .map(|v| v.len())
        .max()
        .unwrap_or(0);
    let mut iterations = Vec::with_capacity(iterations_done);
    for it in 0..iterations_done {
        let merged = collected
            .per_node_iters
            .iter()
            .filter_map(|v| v.get(it))
            .fold(StageTimes::default(), |acc, s| acc.max(s));
        iterations.push(merged);
    }
    let compute_seconds: f64 = iterations.iter().map(|s| s.total()).sum();
    let setup_seconds = collected.setup_end.iter().cloned().fold(0.0, f64::max);

    let metrics = JobMetrics {
        total_seconds: report.end_time.as_secs_f64(),
        sim_events: report.events_processed,
        setup_seconds,
        compute_seconds,
        iterations,
        cpu_fraction: collected.p_used.first().copied().flatten(),
        cpu_fractions: collected.p_used,
        cpu_stats: nodes.iter().map(|n| n.cpu.stats()).collect(),
        gpu_stats: nodes
            .iter()
            .map(|n| n.gpus.iter().map(|g| g.stats()).collect())
            .collect(),
        cpu_map_tasks: collected.cpu_map_tasks,
        gpu_map_tasks: collected.gpu_map_tasks,
        timeline: timeline.map(|t| t.intervals()).unwrap_or_default(),
        recovery: *recovery.lock(),
        interrupted: collected.interrupted,
        handoff: collected.handoff,
        paused: collected.paused,
    };
    if obs.metrics.is_enabled() {
        fill_registry(&obs, &nodes, &metrics);
    }

    Ok(JobResult {
        outputs: collected.outputs,
        metrics,
    })
}

/// Populates the end-of-run summary series in the metrics registry from
/// the finished [`JobMetrics`]: per-device utilization, task and flop
/// totals, recovery counters, and job-level timing gauges. Kept out of
/// the simulation so it costs nothing while the virtual clock runs.
fn fill_registry(obs: &Obs, nodes: &[Arc<FatNode>], metrics: &JobMetrics) {
    let m = &obs.metrics;
    let total = metrics.total_seconds;
    for node in nodes.iter() {
        let cpu = node.cpu.stats();
        // Stable node id, not the positional rank: on an elastic cluster
        // the summary series must name the same device the event lanes do.
        let r = node.rank;
        let name = format!("node{r}-cpu");
        m.counter_add("prs_tasks_total", &[("device", &name)], cpu.tasks as f64);
        m.counter_add("prs_flops_total", &[("device", &name)], cpu.flops);
        let cores = node.cpu.spec.cores as f64;
        if total > 0.0 && cores > 0.0 {
            m.gauge_set(
                "prs_device_utilization",
                &[("device", &name)],
                cpu.core_busy / (cores * total),
            );
        }
        for (g, gpu) in node.gpus.iter().enumerate() {
            let gs = gpu.stats();
            let gname = format!("node{r}-gpu{g}");
            m.counter_add("prs_tasks_total", &[("device", &gname)], gs.kernels as f64);
            m.counter_add("prs_flops_total", &[("device", &gname)], gs.flops);
            if total > 0.0 {
                m.gauge_set(
                    "prs_device_utilization",
                    &[("device", &gname)],
                    gs.compute_busy / total,
                );
            }
        }
    }
    let rec = &metrics.recovery;
    m.counter_add("prs_recovery_total", &[("action", "retry")], rec.retries as f64);
    m.counter_add(
        "prs_recovery_total",
        &[("action", "reassignment")],
        rec.reassignments as f64,
    );
    m.counter_add(
        "prs_recovery_total",
        &[("action", "gpu_daemon_crash")],
        rec.gpu_daemon_crashes as f64,
    );
    m.counter_add(
        "prs_recovery_total",
        &[("action", "block_requeued")],
        rec.blocks_requeued as f64,
    );
    m.counter_add(
        "prs_recovery_total",
        &[("action", "speculative_launched")],
        rec.speculative_launched as f64,
    );
    m.counter_add(
        "prs_recovery_total",
        &[("action", "speculative_won")],
        rec.speculative_won as f64,
    );
    m.counter_add(
        "prs_recovery_total",
        &[("action", "speculative_wasted")],
        rec.speculative_wasted as f64,
    );
    m.counter_add(
        "prs_recovery_total",
        &[("action", "node_crash")],
        rec.node_crashes as f64,
    );
    m.counter_add(
        "prs_recovery_total",
        &[("action", "master_failover")],
        rec.master_failovers as f64,
    );
    m.counter_add(
        "prs_recovery_total",
        &[("action", "checkpoint_written")],
        rec.checkpoints_written as f64,
    );
    m.counter_add("prs_recovery_total", &[("action", "restore")], rec.restores as f64);
    m.gauge_set("prs_seconds_lost_to_faults", &[], rec.seconds_lost_to_faults);
    m.gauge_set("prs_total_seconds", &[], metrics.total_seconds);
    m.gauge_set("prs_setup_seconds", &[], metrics.setup_seconds);
    m.gauge_set("prs_compute_seconds", &[], metrics.compute_seconds);
    m.gauge_set("prs_iterations", &[], metrics.iterations.len() as f64);
    m.counter_add("prs_map_tasks_total", &[("device", "cpu")], metrics.cpu_map_tasks as f64);
    m.counter_add("prs_map_tasks_total", &[("device", "gpu")], metrics.gpu_map_tasks as f64);
}

async fn cpu_poller<A: SpmdApp>(
    ctx: &SimCtx,
    node: &Arc<FatNode>,
    app: &A,
    q: &Channel<Task<A::Inter>>,
    results: &Channel<TaskResult<A::Inter, A::Output>>,
    board: &CompletionBoard,
) {
    while let Some(task) = q.recv(ctx).await {
        match task {
            Task::Map {
                id,
                range,
                speculative,
            } => {
                // A queued copy whose race is already decided is skipped
                // without touching the device (checking the board costs no
                // virtual time).
                if board.is_claimed(id) {
                    results.send(ctx, TaskResult::Cancelled { id, speculative });
                    continue;
                }
                let work = app.map_work(range.len());
                let pairs = node
                    .cpu
                    .run_task(ctx, &work, || app.cpu_map(node.rank, range.clone()))
                    .await;
                results.send(
                    ctx,
                    TaskResult::Map {
                        id,
                        device: DeviceClass::Cpu,
                        pairs,
                        speculative,
                    },
                );
            }
            Task::Reduce { key, values } => {
                let work = app.reduce_work(values.len());
                let output = node
                    .cpu
                    .run_task(ctx, &work, || app.reduce(DeviceClass::Cpu, key, values))
                    .await;
                results.send(ctx, TaskResult::Reduce { key, output });
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
async fn gpu_stream_worker<A: SpmdApp>(
    ctx: &SimCtx,
    node: &Arc<FatNode>,
    gpu: &Arc<device::Gpu>,
    gpu_index: usize,
    app: &A,
    q: &Channel<Task<A::Inter>>,
    results: &Channel<TaskResult<A::Inter, A::Output>>,
    ready: &Channel<()>,
    config: JobConfig,
    staged: bool,
    board: &CompletionBoard,
) {
    // The funneled design: one context for the daemon's whole life,
    // created during job setup (the worker waits for readiness before the
    // timed iterations start).
    let _daemon_context = if config.context_per_task {
        None
    } else {
        Some(gpu.create_context(ctx).await)
    };
    ready.send(ctx, ());
    while let Some(task) = q.recv(ctx).await {
        // Graceful degradation: a daemon whose device has died hands the
        // task straight back to the sub-task scheduler and exits.
        if gpu.is_crashed(ctx.now()) {
            results.send(
                ctx,
                TaskResult::GpuDown {
                    gpu: gpu_index,
                    task: Some(task),
                    lost: 0.0,
                },
            );
            return;
        }
        if config.context_per_task {
            let _per_task = gpu.create_context(ctx).await;
        }
        match task {
            Task::Map {
                id,
                range,
                speculative,
            } => {
                if board.is_claimed(id) {
                    results.send(ctx, TaskResult::Cancelled { id, speculative });
                    continue;
                }
                if staged {
                    gpu.transfer_h2d(ctx, range.len() as u64 * app.item_bytes())
                        .await;
                }
                let work = app.map_work(range.len());
                match gpu
                    .try_launch(ctx, &work, || app.gpu_map(node.rank, range.clone()))
                    .await
                {
                    Ok(pairs) => results.send(
                        ctx,
                        TaskResult::Map {
                            id,
                            device: DeviceClass::Gpu,
                            pairs,
                            speculative,
                        },
                    ),
                    Err(dead) => {
                        results.send(
                            ctx,
                            TaskResult::GpuDown {
                                gpu: gpu_index,
                                task: Some(Task::Map {
                                    id,
                                    range,
                                    speculative,
                                }),
                                lost: dead.lost.as_secs_f64(),
                            },
                        );
                        return;
                    }
                }
            }
            Task::Reduce { key, values } => {
                let work = app.reduce_work(values.len());
                // Keep a copy so an interrupted reduce can be re-queued
                // intact on a surviving device.
                let backup = values.clone();
                match gpu
                    .try_launch(ctx, &work, || app.reduce(DeviceClass::Gpu, key, values))
                    .await
                {
                    Ok(output) => results.send(ctx, TaskResult::Reduce { key, output }),
                    Err(dead) => {
                        results.send(
                            ctx,
                            TaskResult::GpuDown {
                                gpu: gpu_index,
                                task: Some(Task::Reduce {
                                    key,
                                    values: backup,
                                }),
                                lost: dead.lost.as_secs_f64(),
                            },
                        );
                        return;
                    }
                }
            }
        }
    }
}

/// Sub-task-scheduler reaction to a GPU daemon death: account for it,
/// re-queue the interrupted task onto a surviving device class, and — once
/// the node's last GPU daemon is gone in a split-queue mode — drain the
/// GPU backlog over to the CPU queue so no block is stranded.
///
/// GPU-only jobs can only bounce work to other GPU daemons; if none
/// survive, the simulation deadlocks and `run_job` reports
/// [`JobError::Sim`] — there is no device left that could make progress.
#[allow(clippy::too_many_arguments)]
async fn gpu_down<A: SpmdApp>(
    ctx: &SimCtx,
    gpu: usize,
    task: Option<Task<A::Inter>>,
    lost: f64,
    alive: &mut [usize],
    config: &JobConfig,
    cpu_q: &Channel<Task<A::Inter>>,
    gpu_q: &Channel<Task<A::Inter>>,
    recovery: &Arc<Mutex<RecoveryCounters>>,
    obs: &Obs,
    sched_lane: &str,
) {
    // First report from this GPU's daemons: the card itself died.
    let first_down = alive[gpu] == config.gpu_streams;
    record_recovery(
        ctx.now(),
        recovery,
        obs,
        sched_lane,
        RecoveryAction::GpuDaemonDown {
            gpu,
            lost_secs: lost,
        },
    );
    if first_down {
        record_recovery(
            ctx.now(),
            recovery,
            obs,
            sched_lane,
            RecoveryAction::GpuCrash { gpu },
        );
    }
    alive[gpu] = alive[gpu].saturating_sub(1);
    let gpu_only = matches!(config.scheduling, SchedulingMode::GpuOnly);
    if let Some(t) = task {
        record_recovery(
            ctx.now(),
            recovery,
            obs,
            sched_lane,
            RecoveryAction::BlockRequeued { gpu },
        );
        if gpu_only {
            gpu_q.send(ctx, t);
        } else {
            cpu_q.send(ctx, t);
        }
    }
    let shared = matches!(config.scheduling, SchedulingMode::Dynamic { .. });
    if !shared && !gpu_only && alive.iter().all(|&s| s == 0) {
        // recv_deadline at `now` is a non-blocking drain of the backlog.
        while let RecvOutcome::Msg(t) = gpu_q.recv_deadline(ctx, ctx.now()).await {
            record_recovery(
                ctx.now(),
                recovery,
                obs,
                sched_lane,
                RecoveryAction::BlockRequeued { gpu },
            );
            cpu_q.send(ctx, t);
        }
    }
}

/// The analytic prediction backing both the decision audit and the
/// speculation deadline: the Equation (1)–(11) regime that fires for this
/// node, the CPU fraction actually used, and the roofline-predicted
/// per-device map seconds for `bytes_f` bytes of input.
///
/// Degenerate device populations get pseudo-regimes: `CpuOnly` when no
/// GPU side exists (CPU-only mode, a GPU-less profile, or every GPU
/// dead) and `GpuOnly` when the CPU side is pinned off. Dynamic mode has
/// no a-priori `p` (it emerges from polling), so the analytic Equation
/// (8) fraction serves as the reference point.
pub(crate) fn predict_split(
    profile: &DeviceProfile,
    workload: &Workload,
    config: &JobConfig,
    gpus_usable: usize,
    p_eff: f64,
    bytes_f: f64,
) -> (f64, String, f64, f64) {
    let uses_gpu = !matches!(config.scheduling, SchedulingMode::CpuOnly);
    let gpu_side = uses_gpu && !profile.gpus.is_empty() && gpus_usable > 0;
    if workload.ai_cpu <= 0.0 || workload.ai_gpu <= 0.0 {
        // The roofline model needs positive arithmetic intensity; report
        // the split without predictions rather than asserting.
        let p = if p_eff.is_finite() { p_eff } else { 0.5 };
        (p, "Unmodeled".to_string(), 0.0, 0.0)
    } else if !gpu_side {
        let flops = profile.cpu_roofline().attainable_flops(workload.ai_cpu);
        (
            1.0,
            "CpuOnly".to_string(),
            device_time(bytes_f, workload.ai_cpu, flops),
            0.0,
        )
    } else if matches!(config.scheduling, SchedulingMode::GpuOnly) {
        let d = split_multi_gpu(profile, workload, gpus_usable);
        (
            0.0,
            "GpuOnly".to_string(),
            0.0,
            device_time(bytes_f, workload.ai_gpu, d.gpu_flops),
        )
    } else {
        let d = split_multi_gpu(profile, workload, gpus_usable);
        let p = if p_eff.is_finite() { p_eff } else { d.cpu_fraction };
        (
            p,
            format!("{:?}", d.regime),
            device_time(p * bytes_f, workload.ai_cpu, d.cpu_flops),
            device_time((1.0 - p) * bytes_f, workload.ai_gpu, d.gpu_flops),
        )
    }
}

/// Records one scheduling decision — its inputs (arithmetic
/// intensities, ridge points, surviving-device census), the Equation
/// (1)–(11) regime that fired, the chosen split, and the
/// roofline-predicted per-device map time — in the audit log. Returns a
/// handle the worker completes with observed times after the map stage.
///
/// Degenerate device populations get pseudo-regimes: `CpuOnly` when no
/// GPU side exists (CPU-only mode, a GPU-less profile, or every GPU
/// dead) and `GpuOnly` when the CPU side is pinned off. Dynamic mode
/// has no a-priori `p` (it emerges from polling), so the analytic
/// Equation (8) fraction is recorded as the reference point instead.
#[allow(clippy::too_many_arguments)]
fn audit_decision(
    obs: &Obs,
    profile: &DeviceProfile,
    calibrated: bool,
    workload: &Workload,
    config: &JobConfig,
    rank: usize,
    iter: usize,
    gpus_usable: usize,
    p_eff: f64,
    items: usize,
    bytes: u64,
) -> Option<DecisionId> {
    if !obs.audit.is_enabled() {
        return None;
    }
    let uses_gpu = !matches!(config.scheduling, SchedulingMode::CpuOnly);
    let has_gpu_hw = !profile.gpus.is_empty();
    let bytes_f = bytes as f64;
    let mode = match config.scheduling {
        SchedulingMode::Static { .. } => "static",
        SchedulingMode::Dynamic { .. } => "dynamic",
        SchedulingMode::CpuOnly => "cpu-only",
        SchedulingMode::GpuOnly => "gpu-only",
    };
    let trigger = match config.scheduling {
        SchedulingMode::Static {
            p_override: Some(_),
        } => "override",
        _ if uses_gpu && gpus_usable < config.gpus_per_node => "survivor-recompute",
        _ if calibrated => "calibrated",
        _ => "initial",
    };
    let (p, regime, pred_cpu, pred_gpu) =
        predict_split(profile, workload, config, gpus_usable, p_eff, bytes_f);
    obs.audit.begin(DecisionRecord {
        node: rank,
        iteration: iter,
        mode: mode.to_string(),
        trigger: trigger.to_string(),
        ai_cpu: workload.ai_cpu,
        ai_gpu: workload.ai_gpu,
        cpu_ridge: profile.cpu_ridge(),
        gpu_ridge: if has_gpu_hw {
            profile.gpu_ridge(workload.residency)
        } else {
            0.0
        },
        regime,
        gpus_total: if uses_gpu { config.gpus_per_node } else { 0 },
        gpus_usable,
        cpu_fraction: p,
        block_items: match config.scheduling {
            SchedulingMode::Dynamic { block_items } => block_items,
            _ => 0,
        },
        items,
        bytes,
        predicted_cpu_secs: pred_cpu,
        predicted_gpu_secs: pred_gpu,
        predicted_map_secs: pred_cpu.max(pred_gpu),
        observed_cpu_secs: None,
        observed_gpu_secs: None,
        observed_map_secs: None,
    })
}

/// Groups pairs by key (deterministic order) and applies the combiner.
fn combine_pairs<A: SpmdApp>(app: &A, pairs: Vec<(Key, A::Inter)>) -> Vec<(Key, A::Inter)> {
    let mut grouped: BTreeMap<Key, Vec<A::Inter>> = BTreeMap::new();
    for (k, v) in pairs {
        grouped.entry(k).or_default().push(v);
    }
    let mut out = Vec::new();
    for (k, vals) in grouped {
        for v in app.combine(k, vals) {
            out.push((k, v));
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
async fn worker_body<A: SpmdApp>(
    ctx: &SimCtx,
    rank: usize,
    node: &Arc<FatNode>,
    comm: netsim::Communicator,
    ctrl: Channel<CtrlMsg>,
    acks: Channel<(usize, u64)>,
    stalls: Vec<NodeStall>,
    cpu_q: Channel<Task<A::Inter>>,
    gpu_q: Channel<Task<A::Inter>>,
    results: Channel<TaskResult<A::Inter, A::Output>>,
    ready: Channel<()>,
    app: Arc<A>,
    config: JobConfig,
    update: UpdateFn<A>,
    collect: Arc<Mutex<Collected<A::Output>>>,
    recovery: Arc<Mutex<RecoveryCounters>>,
    obs: Obs,
    board: Arc<CompletionBoard>,
    hooks: Arc<RunHooks>,
) {
    let seq = CollectiveSeq::new();
    let coll = comm.collectives(&seq);
    let dispatch = node.overheads.task_dispatch;
    let latency = comm.params().latency;
    // The sub-task scheduler's own event lane and metric label, keyed by
    // the stable node id (== rank on a fixed cluster) so attribution
    // survives elastic membership changes.
    let node_id = node.rank;
    let sched_lane = format!("node{node_id}-sched");
    let rank_label = node_id.to_string();

    // ---- Setup: receive partition assignments from the master,
    // acknowledge each one (an active stall window delays the ack — how a
    // straggling node looks from the master), and keep only the
    // assignments the master finally confirms: anything else was
    // reassigned to another node after we missed the deadline.
    let mut assigned: BTreeMap<u64, Range<usize>> = BTreeMap::new();
    // The lowest confirmed attempt id doubles as this worker's trace
    // root partition (deterministic; falls back to the rank if nothing
    // was confirmed).
    let mut root_part = u64::MAX;
    let partitions: Vec<Range<usize>> = loop {
        match ctrl.recv(ctx).await {
            Some(CtrlMsg::Partition { id, range }) => {
                // The master's control-plane flow lands here; pair its
                // `msg-send` at the instant the assignment is matched.
                if let Some(d) = obs.bus.event(&sched_lane, "msg-recv", ctx.now()) {
                    d.partition(id as usize)
                        .attr(
                            "flow",
                            trace_ctx::flow_id(trace_ctx::CONTROL_RANK, rank as u64, id) as f64,
                        )
                        .attr("src", trace_ctx::CONTROL_RANK as f64)
                        .commit();
                }
                let now = ctx.now().as_secs_f64();
                let delay: f64 = stalls
                    .iter()
                    .filter(|s| now >= s.from_secs && now < s.until_secs)
                    .map(|s| s.ack_delay_secs)
                    .sum();
                if delay > 0.0 {
                    ctx.hold(SimTime::from_secs_f64(delay)).await;
                }
                acks.send_delayed(ctx, (rank, id), latency);
                assigned.insert(id, range);
            }
            Some(CtrlMsg::Done { confirmed }) => {
                root_part = confirmed.iter().copied().min().unwrap_or(u64::MAX);
                break confirmed
                    .iter()
                    .filter_map(|id| assigned.remove(id))
                    .collect();
            }
            None => break Vec::new(),
        }
    };
    let root_part = if root_part == u64::MAX { rank as u64 } else { root_part };
    let my_items: usize = partitions.iter().map(|r| r.len()).sum();
    let my_bytes = my_items as u64 * app.item_bytes();

    // Static split fraction per Equation (8) (or override / degenerate).
    let workload = app.workload();
    let p = match config.scheduling {
        SchedulingMode::Static { p_override } => p_override.unwrap_or_else(|| {
            split_multi_gpu(&node.profile, &workload, config.gpus_per_node).cpu_fraction
        }),
        SchedulingMode::CpuOnly => 1.0,
        SchedulingMode::GpuOnly => 0.0,
        SchedulingMode::Dynamic { .. } => f64::NAN, // decided by polling
    };

    // Online calibration state: an EWMA fit of this node's profile,
    // seeded from the configured one and updated after every map stage.
    let mut calib: Option<CalibrationProfile> = match config.calibration {
        CalibrationMode::Online { alpha } => {
            Some(CalibrationProfile::new(node.profile.clone(), alpha))
        }
        CalibrationMode::Off => None,
    };

    let uses_gpu = !matches!(config.scheduling, SchedulingMode::CpuOnly);
    let resident = workload.residency == DataResidency::Resident;
    // Surviving GPU stream daemons per engaged GPU; decremented as
    // `TaskResult::GpuDown` reports come in.
    let mut alive: Vec<usize> = if uses_gpu {
        vec![config.gpu_streams; config.gpus_per_node]
    } else {
        Vec::new()
    };

    // Resident data: stage the node's whole share once, outside the timed
    // iterations (the paper's amortized one-off overhead).
    // Wait for every GPU stream daemon to finish context creation so the
    // one-off context cost stays out of the timed iterations.
    if uses_gpu {
        for _ in 0..config.gpus_per_node * config.gpu_streams {
            ready.recv(ctx).await.expect("gpu daemon readiness");
        }
    }
    if uses_gpu && resident && config.cache_resident_data && my_bytes > 0 {
        // The event matrix is replicated into every engaged GPU's memory
        // (each card needs its own copy); staging proceeds in parallel.
        let handles: Vec<_> = (0..config.gpus_per_node)
            .map(|g| {
                let gpu = node.gpus[g].clone();
                ctx.spawn(&format!("stage-gpu{g}"), move |cctx| async move {
                    gpu.memory
                        .alloc(my_bytes)
                        .expect("resident working set must fit in GPU memory");
                    gpu.transfer_h2d(&cctx, my_bytes).await;
                })
            })
            .collect();
        ctx.join_all(&handles).await;
    }
    coll.barrier(ctx).await;
    collect.lock().setup_end[rank] = ctx.now().as_secs_f64();

    // ---- Iterations. ----
    let mut final_outputs: Option<Vec<(Key, A::Output)>> = None;
    // Node-unique map-task ids, monotone across iterations so the
    // completion board never sees an id reused.
    let mut next_task_id: u64 = 0;
    // Flight-recorder stability watermark: other ranks emit iteration
    // i-1's stage spans at the same virtual instant this rank begins
    // iteration i, and engine scheduling may order them after our pump —
    // so eviction lags one full iteration behind. Everything below the
    // *previous* iteration's start is committed by then.
    let mut recorder_stable_before = 0.0_f64;
    let mut recorder_prev_t0 = 0.0_f64;
    for iter in 0..config.max_iterations {
        let t0 = ctx.now();
        // Every message this iteration sends (shuffle, collectives)
        // carries this causal root, so cross-node flow events get
        // deterministic trace/span ids and iteration tags.
        comm.set_trace_ctx(TraceCtx::root(iter as u64, root_part));

        // Un-cached resident data must be re-staged every iteration (A4).
        if uses_gpu && resident && !config.cache_resident_data && my_bytes > 0 {
            let handles: Vec<_> = (0..config.gpus_per_node)
                .map(|g| {
                    let gpu = node.gpus[g].clone();
                    ctx.spawn(&format!("restage-gpu{g}"), move |cctx| async move {
                        gpu.transfer_h2d(&cctx, my_bytes).await;
                    })
                })
                .collect();
            ctx.join_all(&handles).await;
        }

        // Surviving-device census: a crashed GPU is excluded from the
        // static split, so the remaining devices absorb its share — the
        // per-node scheduler's graceful degradation.
        let gpu_usable = (0..alive.len())
            .filter(|&g| alive[g] > 0 && !node.gpus[g].is_crashed(ctx.now()))
            .count();
        let p_eff = match config.scheduling {
            SchedulingMode::Static { p_override } => {
                if gpu_usable == 0 {
                    1.0
                } else if let Some(cal) = calib.as_ref() {
                    // Equation (8) against the fitted profile (identical to
                    // the configured split until the first observation).
                    cal.split(&workload, gpu_usable).cpu_fraction
                } else if gpu_usable == config.gpus_per_node {
                    p
                } else {
                    // Equation (8) re-evaluated over the surviving device
                    // profile (a fixed override is honored as given).
                    p_override.unwrap_or_else(|| {
                        split_multi_gpu(&node.profile, &workload, gpu_usable).cpu_fraction
                    })
                }
            }
            _ => p,
        };

        // Audit the split decision before dispatch; completed with
        // observed per-device times once the map stage drains. Under
        // online calibration the audited profile (ridges, predictions)
        // is the fitted one — the model the split actually used.
        let calibrated = calib.as_ref().is_some_and(|c| c.total_samples() > 0);
        let decision = audit_decision(
            &obs,
            calib.as_ref().map_or(&node.profile, |c| c.profile()),
            calibrated,
            &workload,
            &config,
            node_id,
            iter,
            gpu_usable,
            p_eff,
            my_items,
            my_bytes,
        );

        // MAP: second-level scheduling of blocks onto device daemons.
        // `sample_queues` keeps a high-water mark of the second-level
        // queue backlog as blocks are dispatched.
        let metrics_on = obs.metrics.is_enabled() || obs.bus.is_enabled();
        let q_lane = obs.bus.intern(&sched_lane);
        let q_kind = obs.bus.intern("queue-sample");
        let sample_queues = |queue: &str, depth: usize| {
            obs.metrics.gauge_max(
                "prs_queue_depth_peak",
                &[("node", &rank_label), ("queue", queue)],
                depth as f64,
            );
            // The same sample as a point event, so rollups can window
            // queue backlog over time (the gauge only keeps the peak).
            if let Some(d) = obs.bus.event_interned(&q_lane, &q_kind, ctx.now()) {
                let class = match queue {
                    "shared" => 0.0,
                    "cpu" => 1.0,
                    _ => 2.0,
                };
                d.attr("depth", depth as f64).attr("queue", class).commit();
            }
        };
        let mut n_tasks = 0u64;
        // With speculation armed, every in-flight primary is remembered
        // (id → block and which device class ran it) so the backup volley
        // can re-dispatch the stragglers on the opposite class.
        let speculating = config.speculation_lag_multiplier.is_some();
        let mut outstanding: BTreeMap<u64, (Range<usize>, bool)> = BTreeMap::new();
        match config.scheduling {
            SchedulingMode::Dynamic { block_items } => {
                for part in &partitions {
                    for block in split_fixed(part.clone(), block_items) {
                        let id = next_task_id;
                        next_task_id += 1;
                        if speculating {
                            outstanding.insert(id, (block.clone(), true));
                        }
                        ctx.hold(dispatch).await;
                        cpu_q.send(
                            ctx,
                            Task::Map {
                                id,
                                range: block,
                                speculative: false,
                            },
                        );
                        if metrics_on {
                            sample_queues("shared", cpu_q.len());
                        }
                        n_tasks += 1;
                    }
                }
            }
            _ => {
                let cpu_blocks =
                    (node.cpu.spec.cores as usize) * (config.blocks_per_core as usize);
                for part in &partitions {
                    let cpu_items = (p_eff * part.len() as f64).round() as usize;
                    let cpu_range = part.start..part.start + cpu_items;
                    let gpu_range = part.start + cpu_items..part.end;
                    if !cpu_range.is_empty() {
                        for block in split_range(cpu_range, cpu_blocks) {
                            let id = next_task_id;
                            next_task_id += 1;
                            if speculating {
                                outstanding.insert(id, (block.clone(), true));
                            }
                            ctx.hold(dispatch).await;
                            cpu_q.send(
                                ctx,
                                Task::Map {
                                    id,
                                    range: block,
                                    speculative: false,
                                },
                            );
                            if metrics_on {
                                sample_queues("cpu", cpu_q.len());
                            }
                            n_tasks += 1;
                        }
                    }
                    if !gpu_range.is_empty() {
                        for block in split_range(gpu_range, config.gpu_blocks_per_partition) {
                            let id = next_task_id;
                            next_task_id += 1;
                            if speculating {
                                outstanding.insert(id, (block.clone(), false));
                            }
                            ctx.hold(dispatch).await;
                            gpu_q.send(
                                ctx,
                                Task::Map {
                                    id,
                                    range: block,
                                    speculative: false,
                                },
                            );
                            if metrics_on {
                                sample_queues("gpu", gpu_q.len());
                            }
                            n_tasks += 1;
                        }
                    }
                }
            }
        }

        // Speculation deadline: `multiplier ×` the Equation-(8) predicted
        // map time for this node's share. Blocks still outstanding at the
        // deadline get one backup volley on the opposite device class;
        // first completion wins on the board, the loser is wasted.
        let spec_deadline: Option<SimTime> =
            config.speculation_lag_multiplier.and_then(|mult| {
                let prof = calib.as_ref().map_or(&node.profile, |c| c.profile());
                let (_, _, pred_cpu, pred_gpu) =
                    predict_split(prof, &workload, &config, gpu_usable, p_eff, my_bytes as f64);
                let predicted = pred_cpu.max(pred_gpu);
                (predicted > 0.0).then(|| t0 + SimTime::from_secs_f64(mult * predicted))
            });
        let mut volley_pending = spec_deadline.is_some();

        let mut cpu_pairs: Vec<(Key, A::Inter)> = Vec::new();
        let mut gpu_pairs: Vec<(Key, A::Inter)> = Vec::new();
        // Last map result per device class: the observed per-device map
        // completion times for the decision audit.
        let mut last_cpu_end: Option<SimTime> = None;
        let mut last_gpu_end: Option<SimTime> = None;
        // Every dispatched copy — primary or backup — reports exactly one
        // `Map` or `Cancelled`, so draining to `expected` resolves every
        // race before the combiner runs.
        let mut seen = 0u64;
        let mut expected = n_tasks;
        while seen < expected {
            let outcome = if volley_pending && !outstanding.is_empty() {
                let deadline = spec_deadline.expect("speculation deadline set");
                match results.recv_deadline(ctx, deadline).await {
                    RecvOutcome::Msg(r) => Some(r),
                    RecvOutcome::Closed => None,
                    RecvOutcome::TimedOut => {
                        volley_pending = false;
                        for (&id, (range, on_cpu)) in outstanding.iter() {
                            let backup_q = match config.scheduling {
                                SchedulingMode::GpuOnly => &gpu_q,
                                SchedulingMode::CpuOnly | SchedulingMode::Dynamic { .. } => {
                                    &cpu_q
                                }
                                SchedulingMode::Static { .. } => {
                                    if *on_cpu && gpu_usable > 0 {
                                        &gpu_q
                                    } else {
                                        &cpu_q
                                    }
                                }
                            };
                            ctx.hold(dispatch).await;
                            backup_q.send(
                                ctx,
                                Task::Map {
                                    id,
                                    range: range.clone(),
                                    speculative: true,
                                },
                            );
                            expected += 1;
                            record_recovery(
                                ctx.now(),
                                &recovery,
                                &obs,
                                &sched_lane,
                                RecoveryAction::SpecLaunch { task: id },
                            );
                        }
                        continue;
                    }
                }
            } else {
                results.recv(ctx).await
            };
            match outcome.expect("results channel open") {
                TaskResult::Map {
                    id,
                    device,
                    pairs,
                    speculative,
                } => {
                    seen += 1;
                    if board.claim(id) {
                        outstanding.remove(&id);
                        let mut c = collect.lock();
                        match device {
                            DeviceClass::Cpu => {
                                c.cpu_map_tasks += 1;
                                drop(c);
                                cpu_pairs.extend(pairs);
                                last_cpu_end = Some(ctx.now());
                            }
                            DeviceClass::Gpu => {
                                c.gpu_map_tasks += 1;
                                drop(c);
                                gpu_pairs.extend(pairs);
                                last_gpu_end = Some(ctx.now());
                            }
                        }
                        if speculative {
                            record_recovery(
                                ctx.now(),
                                &recovery,
                                &obs,
                                &sched_lane,
                                RecoveryAction::SpecWin { task: id },
                            );
                        }
                    } else if speculative {
                        // The backup lost the race: its pairs are dropped
                        // (the primary's copy is already in).
                        record_recovery(
                            ctx.now(),
                            &recovery,
                            &obs,
                            &sched_lane,
                            RecoveryAction::SpecWasted { task: id },
                        );
                    }
                    // A losing *primary* needs no counter: its backup
                    // already recorded the win.
                }
                TaskResult::Cancelled { id, speculative } => {
                    seen += 1;
                    if speculative {
                        record_recovery(
                            ctx.now(),
                            &recovery,
                            &obs,
                            &sched_lane,
                            RecoveryAction::SpecWasted { task: id },
                        );
                    }
                }
                TaskResult::GpuDown { gpu, task, lost } => {
                    gpu_down::<A>(
                        ctx,
                        gpu,
                        task,
                        lost,
                        &mut alive,
                        &config,
                        &cpu_q,
                        &gpu_q,
                        &recovery,
                        &obs,
                        &sched_lane,
                    )
                    .await;
                }
                TaskResult::Reduce { .. } => unreachable!("no reduce tasks dispatched yet"),
            }
        }

        // The combiner runs device-locally (in GPU memory for GPU output),
        // *before* the device-to-host copy, like the paper's in-GPU
        // sort/merge of intermediates.
        if config.use_combiner {
            cpu_pairs = combine_pairs(app.as_ref(), cpu_pairs);
            gpu_pairs = combine_pairs(app.as_ref(), gpu_pairs);
        }
        // "The intermediate data located in GPU memory will be
        // copied/sorted to/in CPU memory after all map tasks on local node
        // are done."
        if !gpu_pairs.is_empty() {
            let inter_bytes: u64 = gpu_pairs.iter().map(|(_, v)| app.inter_bytes(v)).sum();
            let share = inter_bytes / config.gpus_per_node as u64;
            let handles: Vec<_> = (0..config.gpus_per_node)
                .map(|g| {
                    let gpu = node.gpus[g].clone();
                    ctx.spawn(&format!("d2h-gpu{g}"), move |cctx| async move {
                        gpu.transfer_d2h(&cctx, share.max(1)).await;
                    })
                })
                .collect();
            ctx.join_all(&handles).await;
        }
        let t_map = ctx.now();
        let obs_cpu = last_cpu_end.map_or(0.0, |t| (t - t0).as_secs_f64());
        let obs_gpu = last_gpu_end.map_or(0.0, |t| (t - t0).as_secs_f64());
        if let Some(id) = decision {
            obs.audit
                .complete(id, obs_cpu, obs_gpu, (t_map - t0).as_secs_f64());
        }
        // Feed the observed per-device map times back into the EWMA fit:
        // each side's effective throughput is its share of the flops over
        // the wall time its last block took to land.
        if let Some(cal) = calib.as_mut() {
            let bytes_f = my_bytes as f64;
            let cpu_bytes = p_eff * bytes_f;
            if obs_cpu > 0.0 && cpu_bytes > 0.0 && workload.ai_cpu > 0.0 {
                cal.observe_cpu_rate(workload.ai_cpu, cpu_bytes * workload.ai_cpu / obs_cpu);
            }
            let gpu_bytes = (1.0 - p_eff) * bytes_f;
            if obs_gpu > 0.0 && gpu_bytes > 0.0 && workload.ai_gpu > 0.0 && gpu_usable > 0 {
                cal.observe_gpu_rate(
                    workload.ai_gpu,
                    gpu_bytes * workload.ai_gpu / obs_gpu / gpu_usable as f64,
                );
            }
        }

        // SHUFFLE.
        let items: Vec<ShuffleItem<(Key, A::Inter)>> = cpu_pairs
            .into_iter()
            .chain(gpu_pairs)
            .map(|(k, v)| ShuffleItem {
                bucket: k,
                bytes: app.inter_bytes(&v),
                value: (k, v),
            })
            .collect();
        let arrived = shuffle(&comm, &seq, ctx, items).await;
        let t_shuffle = ctx.now();

        // REDUCE.
        let mut buckets: BTreeMap<Key, Vec<A::Inter>> = BTreeMap::new();
        for item in arrived {
            let (k, v) = item.value;
            buckets.entry(k).or_default().push(v);
        }
        // Single-device modes must route reduces to the only live daemon
        // class; otherwise honor the configured reduce device, falling
        // back to the CPU when every GPU on the node is dead. (In dynamic
        // mode the queues are one shared channel anyway.)
        let reduce_q = match (config.scheduling, config.reduce_device) {
            (SchedulingMode::Dynamic { .. }, _) => &cpu_q,
            (SchedulingMode::GpuOnly, _) => &gpu_q,
            (SchedulingMode::CpuOnly, _) => &cpu_q,
            (_, DeviceClass::Cpu) => &cpu_q,
            (_, DeviceClass::Gpu) if gpu_usable > 0 => &gpu_q,
            (_, DeviceClass::Gpu) => &cpu_q,
        };
        let n_reduces = buckets.len() as u64;
        for (key, mut values) in buckets {
            // Table 1's compare(): give reducers sorted values when the
            // app defines an order.
            if values.len() > 1 && app.compare(&values[0], &values[0]).is_some() {
                values.sort_by(|a, b| {
                    app.compare(a, b).expect("comparator defined for all values")
                });
            }
            ctx.hold(dispatch).await;
            reduce_q.send(ctx, Task::Reduce { key, values });
        }
        let mut outputs: Vec<(Key, A::Output)> = Vec::with_capacity(n_reduces as usize);
        while (outputs.len() as u64) < n_reduces {
            match results.recv(ctx).await.expect("results channel open") {
                TaskResult::Reduce { key, output } => outputs.push((key, output)),
                TaskResult::GpuDown { gpu, task, lost } => {
                    gpu_down::<A>(
                        ctx,
                        gpu,
                        task,
                        lost,
                        &mut alive,
                        &config,
                        &cpu_q,
                        &gpu_q,
                        &recovery,
                        &obs,
                        &sched_lane,
                    )
                    .await;
                }
                TaskResult::Map { .. } => unreachable!("map stage already drained"),
                TaskResult::Cancelled { .. } => {
                    unreachable!("every map race is resolved before reduce dispatch")
                }
            }
        }
        outputs.sort_by_key(|(k, _)| *k);
        let t_reduce = ctx.now();

        // GLOBAL GATHER + UPDATE.
        let out_bytes: u64 = outputs.iter().map(|(_, o)| app.output_bytes(o)).sum();
        let gathered = coll.allgather(ctx, out_bytes.max(1), outputs).await;
        let mut global: Vec<(Key, A::Output)> = gathered.into_iter().flatten().collect();
        global.sort_by_key(|(k, _)| *k);
        // One node decides the iteration's fate, broadcast so replicated
        // app state is written exactly once per iteration. A scheduled
        // crash aborts BEFORE the model update runs: the interrupted
        // iteration leaves no trace in the application state, so restoring
        // the last checkpoint is exact. Otherwise rank 0 applies the
        // update and, on the configured cadence, serializes a checkpoint
        // (host-side only — writing costs no virtual time).
        let verdict = if rank == 0 {
            let now_s = ctx.now().as_secs_f64();
            let membership_due = hooks.finish_at.is_some_and(|t| now_s >= t);
            let v = if hooks.abort_at.is_some_and(|t| now_s >= t) {
                // A crash beats a pending drain: a node can die mid-drain
                // and the elastic driver must see the crash, not the
                // graceful departure.
                Verdict::Aborted
            } else if membership_due && hooks.finish_deadline.is_some_and(|d| now_s > d) {
                // The drain overran its grace window: abort (the update is
                // discarded) and checkpoint-hand-off to the survivors.
                collect.lock().handoff = true;
                Verdict::Aborted
            } else if update(&global) {
                Verdict::Converged
            } else if membership_due {
                Verdict::Paused
            } else {
                Verdict::Continue
            };
            if v != Verdict::Aborted {
                if let Some(ck) = &hooks.checkpoint {
                    let iteration = ck.base_iteration + iter as u64 + 1;
                    if iteration.is_multiple_of(ck.interval) {
                        let prof = calib.as_ref().map_or(&node.profile, |c| c.profile());
                        let cpu_rate = if workload.ai_cpu > 0.0 {
                            prof.cpu_roofline().attainable_flops(workload.ai_cpu)
                        } else {
                            0.0
                        };
                        let gpu_rate =
                            if gpu_usable > 0 && workload.ai_gpu > 0.0 && !prof.gpus.is_empty() {
                                split_multi_gpu(prof, &workload, gpu_usable).gpu_flops
                            } else {
                                0.0
                            };
                        let snapshot = Checkpoint {
                            iteration,
                            virtual_secs: ck.base_secs + ctx.now().as_secs_f64(),
                            app_state: (ck.save_state)(),
                            partition_map: ck.partition_map.clone(),
                            calib_rates: (cpu_rate, gpu_rate),
                            rng_seed: ck.rng_seed,
                        };
                        ck.store.save(&snapshot).expect("checkpoint store write");
                        record_recovery(
                            ctx.now(),
                            &recovery,
                            &obs,
                            &sched_lane,
                            RecoveryAction::CheckpointWritten { iteration },
                        );
                    }
                }
            }
            Some(v)
        } else {
            None
        };
        let verdict = coll.bcast(ctx, 0, 1, verdict).await;
        let t_update = ctx.now();

        // An aborted attempt stops here: the iteration is not recorded
        // (its update never happened) and the resilient driver resumes
        // from the last checkpoint.
        if verdict == Verdict::Aborted {
            if rank == 0 {
                collect.lock().interrupted = true;
            }
            break;
        }

        {
            let mut c = collect.lock();
            c.per_node_iters[rank].push(StageTimes {
                map: (t_map - t0).as_secs_f64(),
                shuffle: (t_shuffle - t_map).as_secs_f64(),
                reduce: (t_reduce - t_shuffle).as_secs_f64(),
                update: (t_update - t_reduce).as_secs_f64(),
            });
            if !matches!(config.scheduling, SchedulingMode::Dynamic { .. }) {
                c.p_used[rank] = Some(p_eff);
            }
        }
        if obs.bus.is_enabled() || obs.stack.is_enabled() {
            let stages = [
                ("map", t0, t_map),
                ("shuffle", t_map, t_shuffle),
                ("reduce", t_shuffle, t_reduce),
                ("update", t_reduce, t_update),
            ];
            // Profiler stack: an outer per-iteration frame with the four
            // stage frames nested inside it by containment.
            obs.stack.frame(&sched_lane, "iteration", t0, t_update);
            for (kind, start, end) in stages {
                if let Some(d) = obs.bus.span(&sched_lane, kind, start, end) {
                    d.iteration(iter).commit();
                }
                obs.stack.frame(&sched_lane, kind, start, end);
            }
        }

        // Pump the flight recorder once per iteration from rank 0 —
        // host-side work only, so virtual time is untouched. Eviction is
        // capped at the one-iteration-lagged watermark (see above); the
        // post-run settle handles whatever the lag leaves behind.
        if rank == 0 && obs.recorder.is_enabled() {
            obs.recorder
                .pump(&obs.bus, t_update.as_secs_f64(), recorder_stable_before);
            recorder_stable_before = recorder_prev_t0;
            recorder_prev_t0 = t0.as_secs_f64();
        }

        if verdict == Verdict::Converged || iter + 1 == config.max_iterations {
            final_outputs = Some(global);
            break;
        }

        // A graceful membership pause: the update above was applied (and
        // recorded), so the elastic driver resumes from the live model
        // state — no rollback, no recovery delay.
        if verdict == Verdict::Paused {
            if rank == 0 {
                collect.lock().paused = true;
            }
            break;
        }
    }

    if rank == 0 {
        collect.lock().outputs = final_outputs.unwrap_or_default();
    }

    // Shut the daemons down.
    cpu_q.close(ctx);
    gpu_q.close(ctx);
}
