//! Multi-tenant DBMS hosting: several tenants share one node's memory,
//! each with its own workload and SLO. The substrate for Tempo-style
//! robust resource management (Tan & Babu, PVLDB 2016 — reference \[23\]
//! of the tutorial: "avoiding error-prone configuration settings" in
//! multi-tenant parallel databases) and for the §2.5 multi-tenancy
//! challenge.
//!
//! The knob space is the per-tenant memory share; the scalar objective is
//! the worst SLO violation ratio across tenants (the max-min criterion
//! Tempo optimizes), so any [`autotune_core::Tuner`] can drive it.

use crate::cluster::NodeSpec;
use crate::dbms::knobs;
use crate::dbms::{DbmsSimulator, DbmsWorkload};
use crate::noise::NoiseModel;
use autotune_core::{
    ConfigSpace, Configuration, Metrics, Objective, Observation, ParamSpec, ParamValue, SystemKind,
    SystemProfile, WorkloadClass,
};
use rand::rngs::StdRng;

/// One tenant of the shared instance.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (used in knob and metric names).
    pub name: String,
    /// The tenant's workload.
    pub workload: DbmsWorkload,
    /// Service-level objective: the runtime this tenant must stay under.
    pub slo_secs: f64,
}

/// A shared-node multi-tenant DBMS.
#[derive(Debug, Clone)]
pub struct MultiTenantDbms {
    space: ConfigSpace,
    /// Host hardware (memory is what tenants compete over).
    pub node: NodeSpec,
    /// Tenants in knob order.
    pub tenants: Vec<TenantSpec>,
    /// Measurement noise.
    pub noise: NoiseModel,
}

impl MultiTenantDbms {
    /// Creates the host. Knobs: one `mem_share_<tenant>` float per
    /// tenant (shares are normalized internally, so the space has no
    /// sum-to-one constraint).
    pub fn new(node: NodeSpec, tenants: Vec<TenantSpec>) -> Self {
        assert!(tenants.len() >= 2, "multi-tenancy needs >= 2 tenants");
        let params = tenants
            .iter()
            .map(|t| {
                ParamSpec::float(
                    &format!("mem_share_{}", t.name),
                    0.05,
                    1.0,
                    1.0 / tenants.len() as f64,
                    "relative memory share of this tenant",
                )
            })
            .collect();
        MultiTenantDbms {
            space: ConfigSpace::new(params),
            node,
            tenants,
            noise: NoiseModel::realistic(),
        }
    }

    /// A three-tenant host: one OLTP tenant with a tight SLO, one OLAP
    /// tenant with a loose SLO, one mixed tenant.
    pub fn standard_three_tenants() -> Self {
        let node = NodeSpec {
            memory_mb: 65_536.0,
            ..NodeSpec::default()
        };
        // SLOs calibrated to be jointly feasible but not under equal
        // shares: the OLAP tenant needs a bigger slice.
        MultiTenantDbms::new(
            node,
            vec![
                TenantSpec {
                    name: "oltp".into(),
                    workload: DbmsWorkload::oltp(),
                    slo_secs: 1_000.0,
                },
                TenantSpec {
                    name: "olap".into(),
                    workload: DbmsWorkload::olap(),
                    slo_secs: 22_000.0,
                },
                TenantSpec {
                    name: "mixed".into(),
                    workload: DbmsWorkload::mixed(),
                    slo_secs: 2_000.0,
                },
            ],
        )
    }

    /// Replaces the noise model.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Normalized memory shares from a configuration.
    pub fn shares(&self, config: &Configuration) -> Vec<f64> {
        let raw: Vec<f64> = self
            .tenants
            .iter()
            .map(|t| config.f64(&format!("mem_share_{}", t.name)).max(0.01))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|r| r / total).collect()
    }

    /// Deterministic per-tenant runtimes under a share configuration.
    /// Each tenant runs a rule-sized DBMS configuration inside its slice
    /// (25% of the slice as buffer pool, scaled work_mem).
    pub fn tenant_runtimes(&self, config: &Configuration) -> Vec<f64> {
        let shares = self.shares(config);
        self.tenants
            .iter()
            .zip(&shares)
            .map(|(tenant, &share)| {
                let granted_mb = self.node.memory_mb * share;
                let node = NodeSpec {
                    memory_mb: granted_mb,
                    ..self.node.clone()
                };
                let sim = DbmsSimulator::new(node, tenant.workload.clone())
                    .with_noise(NoiseModel::none());
                let mut cfg = sim.space().default_config();
                let set = |cfg: &mut Configuration, k: &str, v: f64| {
                    cfg.set(k, ParamValue::Int(v.round().max(1.0) as i64));
                };
                set(
                    &mut cfg,
                    knobs::SHARED_BUFFERS_MB,
                    (granted_mb * 0.25).clamp(64.0, 65_536.0),
                );
                let per_sort = (granted_mb * 0.25
                    / (tenant.workload.concurrency as f64 * 0.5).max(1.0))
                .clamp(1.0, 4096.0);
                set(&mut cfg, knobs::WORK_MEM_MB, per_sort);
                set(
                    &mut cfg,
                    knobs::MAINTENANCE_WORK_MEM_MB,
                    (granted_mb / 16.0).clamp(16.0, 8192.0),
                );
                sim.simulate(&cfg).runtime_secs
            })
            .collect()
    }

    /// Worst SLO violation ratio (`max_i runtime_i / slo_i`); values
    /// above 1.0 mean some tenant misses its SLO.
    pub fn worst_violation(&self, config: &Configuration) -> f64 {
        self.tenant_runtimes(config)
            .iter()
            .zip(&self.tenants)
            .map(|(rt, t)| rt / t.slo_secs)
            .fold(f64::MIN, f64::max)
    }
}

impl Objective for MultiTenantDbms {
    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn profile(&self) -> SystemProfile {
        SystemProfile {
            system: SystemKind::Dbms,
            workload: WorkloadClass::Mixed,
            memory_per_node_mb: self.node.memory_mb,
            cores_per_node: self.node.cores,
            nodes: 1,
            disk_mbps: self.node.disk_mbps,
            network_mbps: self.node.network_mbps,
            input_mb: self.tenants.iter().map(|t| t.workload.table_mb).sum(),
        }
    }

    fn evaluate(&mut self, config: &Configuration, rng: &mut StdRng) -> Observation {
        let runtimes = self.tenant_runtimes(config);
        let mut metrics = Metrics::new();
        let mut worst: f64 = f64::MIN;
        for ((rt, tenant), share) in runtimes.iter().zip(&self.tenants).zip(self.shares(config)) {
            let noisy = self.noise.apply(*rt, rng);
            let ratio = noisy / tenant.slo_secs;
            metrics.insert(format!("runtime_{}", tenant.name), noisy);
            metrics.insert(format!("slo_ratio_{}", tenant.name), ratio);
            metrics.insert(format!("share_{}", tenant.name), share);
            worst = worst.max(ratio);
        }
        metrics.insert("worst_slo_ratio".into(), worst);
        Observation {
            config: config.clone(),
            // Scale so the scalar objective reads like "seconds of the
            // worst-normalized tenant" — any tuner minimizes it directly.
            runtime_secs: worst * 1000.0,
            cost: runtimes.iter().sum(),
            metrics,
            failed: false,
        }
    }

    fn name(&self) -> &str {
        "multitenant-dbms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_normalize() {
        let mt = MultiTenantDbms::standard_three_tenants();
        let cfg = mt.space().default_config();
        let shares = mt.shares(&cfg);
        assert_eq!(shares.len(), 3);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn equal_shares_miss_some_slo() {
        // The standard host is deliberately infeasible under equal split.
        let mt = MultiTenantDbms::standard_three_tenants();
        let cfg = mt.space().default_config();
        assert!(
            mt.worst_violation(&cfg) > 1.0,
            "equal shares should violate an SLO: {}",
            mt.worst_violation(&cfg)
        );
    }

    #[test]
    fn a_better_split_exists() {
        let mt = MultiTenantDbms::standard_three_tenants();
        let mut cfg = mt.space().default_config();
        cfg.set("mem_share_olap", ParamValue::Float(0.75));
        cfg.set("mem_share_oltp", ParamValue::Float(0.15));
        cfg.set("mem_share_mixed", ParamValue::Float(0.10));
        let skewed = mt.worst_violation(&cfg);
        let equal = mt.worst_violation(&mt.space().default_config());
        assert!(skewed < equal, "equal {equal} vs skewed {skewed}");
    }

    #[test]
    fn giving_a_tenant_memory_helps_it() {
        let mt = MultiTenantDbms::standard_three_tenants();
        let mut rich = mt.space().default_config();
        rich.set("mem_share_olap", ParamValue::Float(0.9));
        let rich_rt = mt.tenant_runtimes(&rich)[1];
        let equal_rt = mt.tenant_runtimes(&mt.space().default_config())[1];
        assert!(rich_rt < equal_rt);
    }

    #[test]
    fn observation_reports_per_tenant_metrics() {
        let mut mt = MultiTenantDbms::standard_three_tenants().with_noise(NoiseModel::none());
        let cfg = mt.space().default_config();
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let obs = mt.evaluate(&cfg, &mut rng);
        for t in ["oltp", "olap", "mixed"] {
            assert!(obs.metrics.contains_key(&format!("runtime_{t}")));
            assert!(obs.metrics.contains_key(&format!("slo_ratio_{t}")));
        }
        assert!((obs.runtime_secs / 1000.0 - obs.metrics["worst_slo_ratio"]).abs() < 1e-9);
    }
}
