//! STMM-style cost–benefit memory tuning (Storm et al., VLDB 2006:
//! "Adaptive Self-Tuning Memory in DB2").
//!
//! STMM treats every memory consumer (buffer pool, sort heap, maintenance
//! area, WAL buffer) as an investment opportunity with a *marginal
//! benefit* curve — seconds of I/O saved per MB granted — and greedily
//! moves memory toward the highest marginal benefit until the budget is
//! exhausted. This offline variant computes the allocation from an
//! analytic model of each consumer; the online variant (same math, driven
//! by observed metrics) lives in [`crate::adaptive::online_memory`].

use autotune_core::{
    Configuration, History, ParamValue, Recommendation, SystemProfile, Tuner, TunerFamily,
    TuningContext, WorkloadClass,
};
use autotune_sim::dbms::knobs;
use rand::rngs::StdRng;

/// The memory consumers STMM arbitrates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPool {
    /// `shared_buffers_mb`.
    BufferPool,
    /// `work_mem_mb` (multiplied by concurrent sorts).
    SortHeap,
    /// `maintenance_work_mem_mb`.
    Maintenance,
    /// `wal_buffers_mb`.
    WalBuffer,
}

impl MemoryPool {
    /// All pools.
    pub fn all() -> [MemoryPool; 4] {
        [
            MemoryPool::BufferPool,
            MemoryPool::SortHeap,
            MemoryPool::Maintenance,
            MemoryPool::WalBuffer,
        ]
    }

    /// The knob this pool maps to.
    pub fn knob(&self) -> &'static str {
        match self {
            MemoryPool::BufferPool => knobs::SHARED_BUFFERS_MB,
            MemoryPool::SortHeap => knobs::WORK_MEM_MB,
            MemoryPool::Maintenance => knobs::MAINTENANCE_WORK_MEM_MB,
            MemoryPool::WalBuffer => knobs::WAL_BUFFERS_MB,
        }
    }
}

/// STMM's internal model of the deployment.
#[derive(Debug, Clone)]
pub struct StmmModel {
    /// Estimated hot working set (MB).
    pub working_set_mb: f64,
    /// Estimated size of a typical sort/hash input (MB).
    pub sort_input_mb: f64,
    /// Estimated concurrent sorts (sessions actively sorting).
    pub concurrent_sorts: f64,
    /// Random read ops the workload issues (per run).
    pub random_ops: f64,
    /// Device IOPS.
    pub iops: f64,
    /// Sequential bandwidth MB/s.
    pub disk_mbps: f64,
    /// Number of sort-heavy queries per run.
    pub sorts_per_run: f64,
}

impl StmmModel {
    /// Builds the model from the deployment profile (this is where a cost
    /// model's assumptions live — and where it goes wrong on workloads
    /// that deviate from them; cf. Table 1 "models often based on
    /// simplified assumptions").
    pub fn from_profile(profile: &SystemProfile) -> Self {
        let (ws_frac, sort_frac, conc, rand_ops, sorts) = match profile.workload {
            WorkloadClass::Oltp => (0.10, 0.02, 32.0, 250_000.0, 300.0),
            WorkloadClass::Olap => (0.16, 0.40, 4.0, 2_000.0, 50.0),
            _ => (0.13, 0.20, 16.0, 100_000.0, 100.0),
        };
        StmmModel {
            working_set_mb: profile.input_mb * ws_frac,
            sort_input_mb: profile.input_mb * sort_frac,
            concurrent_sorts: conc,
            random_ops: rand_ops,
            iops: (profile.disk_mbps * 3.0).max(100.0), // crude IOPS guess
            disk_mbps: profile.disk_mbps,
            sorts_per_run: sorts,
        }
    }

    /// Predicted I/O cost (seconds) attributable to a pool at a given
    /// size; the greedy allocator descends these curves.
    pub fn pool_cost_secs(&self, pool: MemoryPool, size_mb: f64) -> f64 {
        match pool {
            MemoryPool::BufferPool => {
                // Miss-curve model identical in *shape* to real buffer
                // pools: exponential-decay misses.
                let hit = 1.0 - 0.95 * (-2.2 * size_mb / self.working_set_mb.max(1.0)).exp();
                self.random_ops * (1.0 - hit) / self.iops
            }
            MemoryPool::SortHeap => {
                // External-sort I/O: extra read+write passes while the
                // input exceeds the per-sort grant.
                if size_mb >= self.sort_input_mb {
                    0.0
                } else {
                    // Continuous pass count: the expected number of extra
                    // read+write passes of an external merge sort with
                    // fan-in 16 (smoothed so marginal benefit is defined
                    // everywhere).
                    let passes =
                        ((self.sort_input_mb / size_mb.max(1.0)).ln() / 16.0f64.ln()).max(1.0);
                    self.sorts_per_run * 2.0 * self.sort_input_mb * passes / self.disk_mbps
                }
            }
            MemoryPool::Maintenance => {
                // Vacuum/index-build passes shrink with memory.
                let passes = (256.0 / size_mb.max(16.0)).min(4.0);
                0.05 * self.working_set_mb * passes / self.disk_mbps
            }
            MemoryPool::WalBuffer => {
                // Commit flushes batched by WAL buffer size.
                let batch = (size_mb * 4.0).clamp(1.0, 64.0);
                (self.random_ops * 0.2 / batch) / self.iops
            }
        }
    }

    /// Marginal benefit (seconds saved per MB) of growing a pool.
    pub fn marginal_benefit(&self, pool: MemoryPool, size_mb: f64, chunk_mb: f64) -> f64 {
        let now = self.pool_cost_secs(pool, size_mb);
        let then = self.pool_cost_secs(pool, size_mb + chunk_mb);
        (now - then) / chunk_mb
    }

    /// Greedy allocation of `budget_mb` across the pools: repeatedly grant
    /// a chunk to the pool with the highest marginal benefit. The sort
    /// heap is charged `concurrent_sorts` times per MB (every session gets
    /// its own grant).
    pub fn allocate(&self, budget_mb: f64, chunks: usize) -> [f64; 4] {
        let mut sizes = [64.0, 1.0, 16.0, 1.0]; // domain minima
        let mut spent: f64 = sizes[0] + sizes[1] * self.concurrent_sorts + sizes[2] + sizes[3];
        let chunk = (budget_mb - spent).max(1.0) / chunks as f64;
        while spent + 1.0 < budget_mb {
            let mut best_pool = 0;
            let mut best_rate = f64::NEG_INFINITY;
            for (i, pool) in MemoryPool::all().into_iter().enumerate() {
                // Per-MB of *budget*: the sort heap consumes
                // concurrent_sorts MB of budget per MB of grant.
                let budget_per_mb = if pool == MemoryPool::SortHeap {
                    self.concurrent_sorts
                } else {
                    1.0
                };
                let grant = chunk / budget_per_mb;
                if grant < 0.25 {
                    continue;
                }
                let rate = self.marginal_benefit(pool, sizes[i], grant) / budget_per_mb;
                if rate > best_rate {
                    best_rate = rate;
                    best_pool = i;
                }
            }
            if best_rate <= 0.0 {
                break; // no pool benefits from more memory
            }
            let pool = MemoryPool::all()[best_pool];
            let budget_per_mb = if pool == MemoryPool::SortHeap {
                self.concurrent_sorts
            } else {
                1.0
            };
            sizes[best_pool] += chunk / budget_per_mb;
            spent += chunk;
        }
        sizes
    }
}

/// The STMM tuner: computes the memory allocation once and proposes it
/// (non-memory knobs stay at their defaults — STMM only manages memory).
#[derive(Debug, Default)]
pub struct StmmTuner;

impl StmmTuner {
    /// Creates the tuner.
    pub fn new() -> Self {
        StmmTuner
    }

    /// Computes the recommended configuration for a context.
    pub fn compute(&self, ctx: &TuningContext) -> Configuration {
        let model = StmmModel::from_profile(&ctx.profile);
        let budget = ctx.profile.memory_per_node_mb * 0.75;
        let sizes = model.allocate(budget, 200);
        let mut config = ctx.space.default_config();
        for (pool, size) in MemoryPool::all().into_iter().zip(sizes) {
            if let Some(spec) = ctx.space.spec(pool.knob()) {
                if let autotune_core::ParamDomain::Int { min, max, .. } = spec.domain {
                    config.set(
                        pool.knob(),
                        ParamValue::Int((size.round() as i64).clamp(min, max)),
                    );
                }
            }
        }
        config
    }
}

impl Tuner for StmmTuner {
    fn name(&self) -> &str {
        "stmm"
    }

    fn family(&self) -> TunerFamily {
        TunerFamily::CostModeling
    }

    fn propose(
        &mut self,
        ctx: &TuningContext,
        _history: &History,
        _rng: &mut StdRng,
    ) -> Configuration {
        self.compute(ctx)
    }

    fn recommend(&self, ctx: &TuningContext, history: &History) -> Recommendation {
        let config = self.compute(ctx);
        let expected = history
            .all()
            .iter()
            .find(|o| o.config == config)
            .map(|o| o.runtime_secs);
        Recommendation {
            config,
            expected_runtime: expected,
            rationale: "greedy cost-benefit memory allocation (STMM)".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::{tune, Objective};
    use autotune_sim::noise::NoiseModel;
    use autotune_sim::DbmsSimulator;

    #[test]
    fn marginal_benefit_decreases_for_buffer_pool() {
        let model = StmmModel::from_profile(&SystemProfile {
            workload: WorkloadClass::Oltp,
            input_mb: 20_480.0,
            ..SystemProfile::default()
        });
        let b1 = model.marginal_benefit(MemoryPool::BufferPool, 128.0, 64.0);
        let b2 = model.marginal_benefit(MemoryPool::BufferPool, 2048.0, 64.0);
        assert!(b1 > b2, "diminishing returns expected: {b1} vs {b2}");
        assert!(b2 >= 0.0);
    }

    #[test]
    fn allocation_spends_budget_sensibly() {
        let model = StmmModel::from_profile(&SystemProfile {
            workload: WorkloadClass::Olap,
            input_mb: 51_200.0,
            ..SystemProfile::default()
        });
        let sizes = model.allocate(12_288.0, 200);
        let spent = sizes[0] + sizes[1] * model.concurrent_sorts + sizes[2] + sizes[3];
        assert!(spent <= 12_288.0 * 1.05, "overspent: {spent}");
        // OLAP: the sort heap should get a meaningful grant.
        assert!(sizes[1] > 64.0, "sort heap starved: {sizes:?}");
        assert!(sizes[0] > 512.0, "buffer pool starved: {sizes:?}");
    }

    #[test]
    fn oltp_favours_buffer_pool_over_sort_heap() {
        let mk = |wl| {
            let model = StmmModel::from_profile(&SystemProfile {
                workload: wl,
                input_mb: 20_480.0,
                ..SystemProfile::default()
            });
            model.allocate(12_288.0, 200)
        };
        let oltp = mk(WorkloadClass::Oltp);
        let olap = mk(WorkloadClass::Olap);
        let oltp_sort_share = oltp[1] * 32.0 / 12_288.0;
        let olap_sort_share = olap[1] * 4.0 / 12_288.0;
        assert!(
            olap_sort_share > oltp_sort_share,
            "OLAP should invest more in sorting: {olap_sort_share} vs {oltp_sort_share}"
        );
    }

    #[test]
    fn stmm_beats_defaults_on_both_workloads() {
        for mk in [DbmsSimulator::oltp_default, DbmsSimulator::olap_default] {
            let mut sim = mk().with_noise(NoiseModel::none());
            let default_rt = sim.simulate(&sim.space().default_config()).runtime_secs;
            let mut tuner = StmmTuner::new();
            let out = tune(&mut sim, &mut tuner, 1, 1);
            let got = out.best.unwrap();
            assert!(!got.failed, "STMM must not overcommit");
            assert!(
                got.runtime_secs < default_rt,
                "default={default_rt} stmm={}",
                got.runtime_secs
            );
        }
    }

    #[test]
    fn stmm_config_is_valid_and_memory_safe() {
        let sim = DbmsSimulator::oltp_default();
        let ctx = TuningContext {
            space: sim.space().clone(),
            profile: sim.profile(),
        };
        let cfg = StmmTuner::new().compute(&ctx);
        assert!(ctx.space.validate_config(&cfg).is_ok());
        let run = sim.simulate(&cfg);
        assert!(!run.failed);
        assert!(run.metrics["mem_overcommit"] < 1.0);
    }
}
