//! **Experiment T1** — Table 1 of the paper, quantified: strengths and
//! weaknesses of the six tuning families measured head-to-head on the
//! three simulated systems.
//!
//! The qualitative cells of Table 1 become measured axes:
//! * "efficient / no runs needed" → speedup at a *tiny* budget (5 runs),
//! * "very time consuming" → speedup at a large budget (25 runs) and the
//!   number of distinct real runs consumed,
//! * "risk of performance degradation" → worst runtime endured and
//!   failure count during tuning,
//! * "able to adjust to dynamic status" / noise robustness → speedup
//!   degradation from mild to heavy (cloud) noise.

use crate::exec::{EvalMemo, SessionExecutor};
use crate::harness::{family_representatives, run_session_memo, SessionRow};
use autotune_core::{Objective, SystemKind};
use autotune_sim::{DbmsSimulator, HadoopSimulator, NoiseModel, SparkSimulator};
use serde::Serialize;

/// Everything the T1 harness measures.
#[derive(Debug, Serialize)]
pub struct Table1Report {
    /// Per-system comparison at the standard budget.
    pub per_system: Vec<SystemSection>,
    /// Tiny-budget (5-run) vs standard-budget speedups on the DBMS.
    pub budget_sensitivity: Vec<BudgetRow>,
    /// Speedup under realistic vs heavy cloud noise on the DBMS.
    pub noise_robustness: Vec<NoiseRow>,
}

/// Rows for one target system.
#[derive(Debug, Serialize)]
pub struct SystemSection {
    /// System label.
    pub system: String,
    /// One row per family representative.
    pub rows: Vec<SessionRow>,
}

/// Tiny- vs standard-budget speedup of one family.
#[derive(Debug, Serialize)]
pub struct BudgetRow {
    /// Family label.
    pub family: String,
    /// Speedup after 5 evaluations.
    pub speedup_at_5: f64,
    /// Speedup after 25 evaluations.
    pub speedup_at_25: f64,
}

/// Noise-robustness of one family.
#[derive(Debug, Serialize)]
pub struct NoiseRow {
    /// Family label.
    pub family: String,
    /// Speedup under 5%-CV noise.
    pub speedup_mild: f64,
    /// Speedup under 20%-CV cloud noise with stragglers.
    pub speedup_cloud: f64,
}

fn objective_factory(system: SystemKind, noise: NoiseModel) -> Box<dyn Fn() -> Box<dyn Objective>> {
    match system {
        SystemKind::Dbms => Box::new(move || {
            Box::new(DbmsSimulator::oltp_default().with_noise(noise)) as Box<dyn Objective>
        }),
        SystemKind::Hadoop => Box::new(move || {
            Box::new(HadoopSimulator::terasort_default().with_noise(noise)) as Box<dyn Objective>
        }),
        SystemKind::Spark => Box::new(move || {
            Box::new(SparkSimulator::aggregation_default().with_noise(noise)) as Box<dyn Objective>
        }),
        SystemKind::Other => unreachable!("no objective for Other"),
    }
}

/// Wall-clock seconds each per-system row's tuner spent computing, in
/// [`Table1Report::per_system`] order. [`render`] prints them; the report
/// leaves them out because they differ from run to run.
pub type Overheads = Vec<Vec<f64>>;

/// Runs the full T1 experiment on the environment-sized executor
/// (`AUTOTUNE_THREADS`, default: available parallelism).
pub fn run(budget: usize, seed: u64) -> (Table1Report, Overheads) {
    run_with(&SessionExecutor::from_env(), budget, seed)
}

/// Runs the full T1 experiment on an explicit executor. Every session is
/// an independent job — (system, family, budget, seed) fully determines
/// its outcome — so the report is identical for any thread count.
pub fn run_with(exec: &SessionExecutor, budget: usize, seed: u64) -> (Table1Report, Overheads) {
    let memo = EvalMemo::new();
    let memo = &memo;
    let systems: [(&str, SystemKind, &str); 3] = [
        ("DBMS (OLTP)", SystemKind::Dbms, "t1/dbms/realistic"),
        (
            "Hadoop (TeraSort)",
            SystemKind::Hadoop,
            "t1/hadoop/realistic",
        ),
        (
            "Spark (aggregation)",
            SystemKind::Spark,
            "t1/spark/realistic",
        ),
    ];

    // One job per (system, family representative); tuners and factories
    // are built inside the job (Box<dyn Tuner> is not Send).
    let mut jobs = Vec::new();
    for &(_, system, scope) in &systems {
        for fi in 0..family_representatives(system).len() {
            jobs.push(move || {
                let factory = objective_factory(system, NoiseModel::realistic());
                let mut tuner = family_representatives(system)
                    .into_iter()
                    .nth(fi)
                    .expect("family index in range")
                    .1;
                run_session_memo(factory.as_ref(), tuner.as_mut(), budget, seed, memo, scope)
            });
        }
    }
    let mut flat = exec.run(jobs).into_iter();
    let (per_system, overheads) = systems
        .iter()
        .map(|&(label, system, _)| {
            let (rows, overheads) = (0..family_representatives(system).len())
                .map(|_| flat.next().expect("one row per job"))
                .unzip();
            let section = SystemSection {
                system: label.to_string(),
                rows,
            };
            (section, overheads)
        })
        .unzip();

    // Budget sensitivity on the DBMS: one job per family, covering both
    // budgets (the pair shares nothing with other families).
    let dbms_families = family_representatives(SystemKind::Dbms).len();
    let budget_sensitivity = exec.run(
        (0..dbms_families)
            .map(|fi| {
                move || {
                    let factory = objective_factory(SystemKind::Dbms, NoiseModel::realistic());
                    let (label, mut t5) = family_representatives(SystemKind::Dbms)
                        .into_iter()
                        .nth(fi)
                        .expect("family index in range");
                    let (r5, _) = run_session_memo(
                        factory.as_ref(),
                        t5.as_mut(),
                        5,
                        seed + 1,
                        memo,
                        "t1/dbms/realistic",
                    );
                    let mut t25 = family_representatives(SystemKind::Dbms)
                        .into_iter()
                        .nth(fi)
                        .expect("same list")
                        .1;
                    let (r25, _) = run_session_memo(
                        factory.as_ref(),
                        t25.as_mut(),
                        budget,
                        seed + 1,
                        memo,
                        "t1/dbms/realistic",
                    );
                    BudgetRow {
                        family: label.to_string(),
                        speedup_at_5: r5.speedup,
                        speedup_at_25: r25.speedup,
                    }
                }
            })
            .collect(),
    );

    // Noise robustness on the DBMS.
    let noise_robustness = exec.run(
        (0..dbms_families)
            .map(|fi| {
                move || {
                    let mild_factory = objective_factory(SystemKind::Dbms, NoiseModel::realistic());
                    let cloud_factory =
                        objective_factory(SystemKind::Dbms, NoiseModel::noisy_cloud());
                    let (label, mut ta) = family_representatives(SystemKind::Dbms)
                        .into_iter()
                        .nth(fi)
                        .expect("family index in range");
                    let (mild, _) = run_session_memo(
                        mild_factory.as_ref(),
                        ta.as_mut(),
                        budget,
                        seed + 2,
                        memo,
                        "t1/dbms/realistic",
                    );
                    let mut tb = family_representatives(SystemKind::Dbms)
                        .into_iter()
                        .nth(fi)
                        .expect("same list")
                        .1;
                    let (cloud, _) = run_session_memo(
                        cloud_factory.as_ref(),
                        tb.as_mut(),
                        budget,
                        seed + 2,
                        memo,
                        "t1/dbms/cloud",
                    );
                    NoiseRow {
                        family: label.to_string(),
                        speedup_mild: mild.speedup,
                        speedup_cloud: cloud.speedup,
                    }
                }
            })
            .collect(),
    );

    let report = Table1Report {
        per_system,
        budget_sensitivity,
        noise_robustness,
    };
    (report, overheads)
}

/// Renders the report as text, with the tuners' wall clock from
/// `overheads` in each per-system table's `overhead` column.
pub fn render(report: &Table1Report, overheads: &Overheads) -> String {
    let mut out = String::new();
    out.push_str("== Table 1 (quantified): six families head-to-head ==\n");
    for (section, overheads) in report.per_system.iter().zip(overheads) {
        out.push_str(&format!("\n-- {} --\n", section.system));
        out.push_str(&crate::harness::render_rows(&section.rows, overheads));
    }
    out.push_str("\n-- budget sensitivity (DBMS): speedup @5 runs vs @25 runs --\n");
    for r in &report.budget_sensitivity {
        out.push_str(&format!(
            "{:<20} {:>7.2}x -> {:>7.2}x\n",
            r.family, r.speedup_at_5, r.speedup_at_25
        ));
    }
    out.push_str("\n-- noise robustness (DBMS): speedup mild vs cloud noise --\n");
    for r in &report.noise_robustness {
        out.push_str(&format!(
            "{:<20} {:>7.2}x -> {:>7.2}x\n",
            r.family, r.speedup_mild, r.speedup_cloud
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_small_run_has_all_sections() {
        let (report, overheads) = run(6, 3);
        assert_eq!(report.per_system.len(), 3);
        for s in &report.per_system {
            assert_eq!(s.rows.len(), 7);
        }
        assert_eq!(report.budget_sensitivity.len(), 7);
        assert_eq!(report.noise_robustness.len(), 7);
        assert_eq!(overheads.iter().map(Vec::len).sum::<usize>(), 21);
        let text = render(&report, &overheads);
        assert!(text.contains("Hadoop"));
        assert!(text.contains("budget sensitivity"));
    }
}
