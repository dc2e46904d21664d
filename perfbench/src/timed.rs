//! Transparent timing wrappers: an app and a checkpoint store that
//! delegate every call unchanged and record a span around the ones that
//! run host code of their layer.

use crate::tracer::Tracer;
use device::WorkProfile;
use prs_core::{
    Checkpoint, CheckpointStore, CheckpointableApp, DeviceClass, IterativeApp, Key, SpmdApp,
};
use roofline::schedule::Workload;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps an app; kernel calls (map, combine, reduce, update and the
/// checkpoint codec) are recorded as `apps.*` spans. Model queries the
/// runtime uses for virtual time (`workload`, `map_work`, sizes) pass
/// through untimed.
pub struct TimedApp<A> {
    inner: Arc<A>,
    tracer: Arc<Tracer>,
}

impl<A> TimedApp<A> {
    pub fn new(inner: Arc<A>, tracer: Arc<Tracer>) -> Self {
        TimedApp { inner, tracer }
    }
}

impl<A: SpmdApp> SpmdApp for TimedApp<A> {
    type Inter = A::Inter;
    type Output = A::Output;

    fn num_items(&self) -> usize {
        self.inner.num_items()
    }
    fn item_bytes(&self) -> u64 {
        self.inner.item_bytes()
    }
    fn workload(&self) -> Workload {
        self.inner.workload()
    }
    fn cpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, A::Inter)> {
        self.tracer
            .span("apps.cpu_map", || self.inner.cpu_map(node, range))
    }
    fn gpu_map(&self, node: usize, range: Range<usize>) -> Vec<(Key, A::Inter)> {
        self.tracer
            .span("apps.gpu_map", || self.inner.gpu_map(node, range))
    }
    fn reduce(&self, device: DeviceClass, key: Key, values: Vec<A::Inter>) -> A::Output {
        self.tracer
            .span("apps.reduce", || self.inner.reduce(device, key, values))
    }
    fn combine(&self, key: Key, values: Vec<A::Inter>) -> Vec<A::Inter> {
        self.tracer
            .span("apps.combine", || self.inner.combine(key, values))
    }
    fn compare(&self, a: &A::Inter, b: &A::Inter) -> Option<std::cmp::Ordering> {
        self.inner.compare(a, b)
    }
    fn map_work(&self, items: usize) -> WorkProfile {
        self.inner.map_work(items)
    }
    fn reduce_work(&self, n_values: usize) -> WorkProfile {
        self.inner.reduce_work(n_values)
    }
    fn inter_bytes(&self, value: &A::Inter) -> u64 {
        self.inner.inter_bytes(value)
    }
    fn output_bytes(&self, value: &A::Output) -> u64 {
        self.inner.output_bytes(value)
    }
}

impl<A: IterativeApp> IterativeApp for TimedApp<A> {
    fn update(&self, outputs: &[(Key, A::Output)]) -> bool {
        self.tracer
            .span("apps.update", || self.inner.update(outputs))
    }
}

impl<A: CheckpointableApp> CheckpointableApp for TimedApp<A> {
    fn save_state(&self) -> Vec<u8> {
        self.tracer
            .span("apps.save_state", || self.inner.save_state())
    }
    fn restore_state(&self, bytes: &[u8]) {
        self.tracer
            .span("apps.restore_state", || self.inner.restore_state(bytes))
    }
}

/// Wraps a checkpoint store: `save` and `latest` are recorded as `ckpt.*`
/// spans, and the encoded size of every saved checkpoint is counted.
pub struct TimedStore {
    inner: Arc<dyn CheckpointStore>,
    tracer: Arc<Tracer>,
    bytes: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn CheckpointStore>, tracer: Arc<Tracer>) -> Self {
        TimedStore {
            inner,
            tracer,
            bytes: AtomicU64::new(0),
        }
    }

    /// Encoded bytes of every checkpoint saved so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl CheckpointStore for TimedStore {
    fn save(&self, ckpt: &Checkpoint) -> Result<(), String> {
        // Sized outside the span so the count does not inflate the time.
        let len = ckpt.encode().len() as u64;
        self.bytes.fetch_add(len, Ordering::Relaxed);
        self.tracer.span("ckpt.save", || self.inner.save(ckpt))
    }
    fn latest(&self) -> Result<Option<Checkpoint>, String> {
        self.tracer.span("ckpt.latest", || self.inner.latest())
    }
    fn count(&self) -> usize {
        self.inner.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_apps::CMeans;
    use prs_core::{
        run_iterative, run_resilient, ClusterSpec, FaultPlan, JobConfig, JobMetrics, MemStore,
    };

    fn points() -> Arc<prs_data::MatrixF32> {
        Arc::new(prs_data::gaussian::clustering_workload(3000, 4, 3, 5).points)
    }

    fn same_virtual(a: &JobMetrics, b: &JobMetrics) {
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        assert_eq!(a.compute_seconds.to_bits(), b.compute_seconds.to_bits());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.sim_events, b.sim_events);
        assert_eq!(a.cpu_map_tasks, b.cpu_map_tasks);
        assert_eq!(a.gpu_map_tasks, b.gpu_map_tasks);
        assert_eq!(a.recovery, b.recovery);
    }

    #[test]
    fn wrapped_iterative_job_is_bit_identical() {
        let pts = points();
        let cfg = JobConfig::dynamic(250).with_iterations(4);
        let spec = ClusterSpec::delta(2);
        let plain = Arc::new(CMeans::new(pts.clone(), 3, 2.0, 1e-12, 9));
        let a = run_iterative(&spec, plain.clone(), cfg).unwrap();

        let tracer = Arc::new(Tracer::new(true));
        let inner = Arc::new(CMeans::new(pts, 3, 2.0, 1e-12, 9));
        let wrapped = Arc::new(TimedApp::new(inner.clone(), tracer.clone()));
        let b = run_iterative(&spec, wrapped, cfg).unwrap();

        assert_eq!(a.outputs, b.outputs);
        same_virtual(&a.metrics, &b.metrics);
        assert_eq!(plain.centers().as_slice(), inner.centers().as_slice());
        let t = crate::tracer::totals(&tracer.spans(), |_| true);
        assert_eq!(t["apps.update"].calls, 4);
        assert!(t["apps.cpu_map"].calls + t["apps.gpu_map"].calls > 0);
    }

    #[test]
    fn wrapped_resilient_job_is_bit_identical() {
        let pts = points();
        let cfg = JobConfig::static_analytic()
            .with_iterations(4)
            .with_checkpoint_interval(1);
        let spec = ClusterSpec::delta(3).with_faults(FaultPlan::seeded(3).crash_node(2, 0.0701));
        let plain = Arc::new(CMeans::new(pts.clone(), 3, 2.0, 1e-12, 4));
        let a = run_resilient(&spec, plain.clone(), cfg, Arc::new(MemStore::new())).unwrap();

        let tracer = Arc::new(Tracer::new(true));
        let inner = Arc::new(CMeans::new(pts, 3, 2.0, 1e-12, 4));
        let store = Arc::new(TimedStore::new(Arc::new(MemStore::new()), tracer.clone()));
        let wrapped = Arc::new(TimedApp::new(inner.clone(), tracer.clone()));
        let b = run_resilient(&spec, wrapped, cfg, store.clone()).unwrap();

        assert_eq!(a.outputs, b.outputs);
        assert_eq!(
            a.total_virtual_secs.to_bits(),
            b.total_virtual_secs.to_bits()
        );
        assert_eq!(a.attempts, b.attempts);
        same_virtual(&a.metrics, &b.metrics);
        assert_eq!(plain.centers().as_slice(), inner.centers().as_slice());
        assert!(b.metrics.recovery.restores >= 1);
        assert!(b.metrics.recovery.checkpoints_written > 0);
        assert!(store.bytes() > 0);
        let t = crate::tracer::totals(&tracer.spans(), |_| true);
        assert_eq!(t["ckpt.save"].calls, b.metrics.recovery.checkpoints_written);
    }
}
