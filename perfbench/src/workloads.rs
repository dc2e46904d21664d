//! The four workloads: their shapes, the inputs each generates from a
//! seed, and the jobs one op runs.
//!
//! Every workload runs fuzzy C-means (the paper's Table-3 application) on
//! the default `calendar` engine. An op is a fixed batch of jobs; ops
//! within a run repeat the same inputs, so their virtual results must be
//! bit-identical.

use prs_apps::CMeans;
use prs_core::{ClusterSpec, FaultPlan, JobConfig, MembershipPlan};
use prs_data::{MatrixF32, SplitMix64};
use roofline::profiles::DeviceProfile;
use std::sync::Arc;

/// C-means fuzzifier `m` (the paper's setting).
pub const FUZZIFIER: f64 = 2.0;
/// Convergence threshold small enough that no job stops early: every op
/// runs its full iteration count, so virtual time depends on the shape
/// alone.
pub const EPSILON: f64 = 1e-12;
/// End of the CPU slowdown window: far past any faulted job's makespan.
const SLOW_UNTIL_S: f64 = 1e3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCmeans4,
    Cluster1000,
    ObservedDynamic32,
    FaultsElastic16,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperCmeans4,
        Workload::Cluster1000,
        Workload::ObservedDynamic32,
        Workload::FaultsElastic16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCmeans4 => "paper_cmeans_4node",
            Workload::Cluster1000 => "cluster_1000node",
            Workload::ObservedDynamic32 => "observed_dynamic_32node",
            Workload::FaultsElastic16 => "faults_elastic_16node",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::PaperCmeans4 => Shape {
                nodes: 4,
                micro: false,
                points: 200_000,
                dims: 100,
                k: 10,
                iterations: 3,
            },
            // 40 points over 20k: with exactly 20 points per node the
            // makespan's critical path ignores the seeded remainder, and
            // every seed would read the same virtual makespan.
            Workload::Cluster1000 => Shape {
                nodes: 1000,
                micro: true,
                points: 20_040,
                dims: 8,
                k: 5,
                iterations: 1,
            },
            Workload::ObservedDynamic32 => Shape {
                nodes: 32,
                micro: false,
                points: 320_000,
                dims: 4,
                k: 5,
                iterations: 10,
            },
            Workload::FaultsElastic16 => Shape {
                nodes: 16,
                micro: false,
                points: 40_000,
                dims: 8,
                k: 5,
                iterations: 6,
            },
        }
    }

    /// The job configuration every job of this workload runs with.
    pub fn config(self) -> JobConfig {
        let it = self.shape().iterations;
        match self {
            Workload::PaperCmeans4 => JobConfig::static_analytic()
                .with_iterations(it)
                .with_streams(2),
            Workload::Cluster1000 => JobConfig::static_analytic()
                .with_iterations(it)
                .with_streams(1),
            Workload::ObservedDynamic32 => {
                let mut c = JobConfig::dynamic(200)
                    .with_iterations(it)
                    .with_recorder(obs::RecorderConfig::enabled());
                c.record_timeline = true;
                c
            }
            Workload::FaultsElastic16 => JobConfig::dynamic(500)
                .with_iterations(it)
                .with_checkpoint_interval(1)
                .with_speculation(1.5),
        }
    }

    pub fn iterations(self) -> usize {
        self.shape().iterations
    }
}

struct Shape {
    nodes: usize,
    micro: bool,
    points: usize,
    dims: usize,
    k: usize,
    iterations: usize,
}

/// Which library entry point a job goes through.
#[derive(Debug, Clone)]
pub enum Driver {
    /// `run_iterative` (or `run_iterative_observed` with a full bundle on
    /// the observed workload).
    Iterative,
    /// `run_resilient` through the faults in the job's cluster spec.
    Resilient,
    /// `run_elastic` with this membership plan, composed with the faults
    /// in the job's cluster spec.
    Elastic(MembershipPlan),
}

/// One job of an op: the cluster it runs on (with its fault plan) and the
/// driver it goes through.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub spec: ClusterSpec,
    pub driver: Driver,
}

/// Seeded draws for one faulted job, as fractions of the fault-free
/// job's iteration phase; [`Inputs::jobs`] turns them into absolute
/// virtual times.
#[derive(Debug, Clone)]
struct FaultDraw {
    elastic: bool,
    /// Distinct nodes the events hit.
    victims: [usize; 3],
    /// Fractions of the iteration phase, one per band.
    fracs: [f64; 4],
    slow_factor: f64,
    jitter_seed: u64,
}

/// Everything generated from the seed before the first simulate call.
pub struct Inputs {
    pub points: Arc<MatrixF32>,
    pub k: usize,
    /// Seed for the C-means initial centers.
    pub init_seed: u64,
    pub base: ClusterSpec,
    draws: Vec<FaultDraw>,
}

/// Host seconds spent generating points, reported as `data.gen_s`.
pub struct SetupTimes {
    pub gen_s: f64,
}

impl Inputs {
    /// Generates a workload's inputs from `seed`. The point count carries
    /// a seeded jitter of at most 0.05%, so virtual times differ slightly
    /// between seeds while the shape and partition sizes stay the same.
    pub fn generate(workload: Workload, seed: u64) -> (Inputs, SetupTimes) {
        let shape = workload.shape();
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0fbe);
        let jitter = rng.next_below((shape.points / 2000) as u64 + 1) as usize;
        let n = shape.points + jitter;
        let t = std::time::Instant::now();
        let points = Arc::new(
            prs_data::gaussian::clustering_workload(n, shape.dims, shape.k, rng.next_u64()).points,
        );
        let gen_s = t.elapsed().as_secs_f64();
        let profile = if shape.micro {
            DeviceProfile::micro_node()
        } else {
            DeviceProfile::delta_node()
        };
        let base = ClusterSpec::homogeneous(
            shape.nodes,
            profile,
            netsim::NetworkParams::infiniband_qdr(),
        );
        let draws = if workload == Workload::FaultsElastic16 {
            (0..4)
                .map(|j| FaultDraw::sample(&mut rng, shape.nodes, j % 2 == 1))
                .collect()
        } else {
            Vec::new()
        };
        let inputs = Inputs {
            points,
            k: shape.k,
            init_seed: rng.next_u64(),
            base,
            draws,
        };
        (inputs, SetupTimes { gen_s })
    }

    /// A fresh C-means model over the inputs, at its seeded initial
    /// centers.
    pub fn app(&self) -> Arc<CMeans> {
        Arc::new(CMeans::new(
            self.points.clone(),
            self.k,
            FUZZIFIER,
            EPSILON,
            self.init_seed,
        ))
    }

    /// The jobs of one op. Faulted jobs place their events at fractions
    /// of the fault-free job's iteration phase, which starts at virtual
    /// time `setup_s` and lasts `compute_s`.
    pub fn jobs(&self, setup_s: f64, compute_s: f64) -> Vec<JobSpec> {
        if self.draws.is_empty() {
            return vec![JobSpec {
                spec: self.base.clone(),
                driver: Driver::Iterative,
            }];
        }
        self.draws
            .iter()
            .map(|d| d.job(&self.base, setup_s, compute_s))
            .collect()
    }
}

impl FaultDraw {
    fn sample(rng: &mut SplitMix64, nodes: usize, elastic: bool) -> FaultDraw {
        // Rank 0 hosts the master; losing it is a different scenario.
        let mut pool: Vec<usize> = (1..nodes).collect();
        let mut victims = [0; 3];
        for v in &mut victims {
            *v = pool.remove(rng.next_below(pool.len() as u64) as usize);
        }
        // Narrow, disjoint bands keep each event in the same iteration for
        // every seed, so recovery cost varies little between seeds.
        let fracs = [0.10, 0.20, 0.40, 0.60].map(|lo| lo + 0.02 * rng.next_f64());
        FaultDraw {
            elastic,
            victims,
            fracs,
            slow_factor: 2.0 + 0.25 * rng.next_f64(),
            jitter_seed: rng.next_u64(),
        }
    }

    fn job(&self, base: &ClusterSpec, setup_s: f64, compute_s: f64) -> JobSpec {
        let at = |i: usize| setup_s + self.fracs[i] * compute_s;
        let end = setup_s + compute_s;
        let [a, b, c] = self.victims;
        let plan = FaultPlan::seeded(self.jitter_seed).with_random_jitter(base.len(), 4, end, 2e-6);
        if !self.elastic {
            // A CPU straggling from early on until the job ends (recovery
            // runs well past the fault-free end), a GPU crash, then a node
            // crash.
            let plan = plan
                .slow_cpu(a, at(0), SLOW_UNTIL_S, self.slow_factor)
                .crash_gpu(b, 0, at(1))
                .crash_node(c, at(2));
            return JobSpec {
                spec: base.clone().with_faults(plan),
                driver: Driver::Resilient,
            };
        }
        // A node crash first, then scale-out, evict and drain.
        let mplan = MembershipPlan::seeded(self.jitter_seed)
            .scale_out(2, at(1))
            .evict(b, at(2))
            .drain(c, at(3), end);
        JobSpec {
            spec: base.clone().with_faults(plan.crash_node(a, at(0))),
            driver: Driver::Elastic(mplan),
        }
    }
}
