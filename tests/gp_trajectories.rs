//! Trajectory guard for the GP tuners: seeded iTuned and OtterTune
//! sessions must reproduce their exact observation sequence and
//! recommendation. The covariance assembly, the Cholesky factorization
//! and the batched prediction paths are optimized under a bit-identity
//! contract; any change that perturbs a single rounding step anywhere in
//! them moves these digests. The hyper-parameter search is pinned here
//! too, but what holds its quality is `tests/gp_search.rs`: a search that
//! changes θ moves these digests by design, and must still reach
//! Nelder–Mead's log marginal likelihood on that test's corpus.
//!
//! A change that is *meant* to alter trajectories recaptures the digests
//! (the failure message prints them) and says so.

use autotune::core::{tune, Objective, Tuner, TuningOutcome};
use autotune::math::gp::{GaussianProcess, KernelKind};
use autotune::prelude::*;

/// FNV-1a over a sequence of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Digest of every observation's runtime bits, in evaluation order.
fn runtime_digest(outcome: &TuningOutcome) -> u64 {
    fnv(outcome
        .history
        .all()
        .iter()
        .map(|o| o.runtime_secs.to_bits()))
}

/// Digest of the recommendation: its configuration and expected runtime.
fn recommendation_digest(outcome: &TuningOutcome) -> u64 {
    let rec = &outcome.recommendation;
    fnv([
        rec.config.stable_hash(),
        rec.expected_runtime.map_or(u64::MAX, f64::to_bits),
    ])
}

fn run(mut objective: Box<dyn Objective>, mut tuner: Box<dyn Tuner>, budget: usize) -> (u64, u64) {
    let outcome = tune(objective.as_mut(), tuner.as_mut(), budget, 7);
    assert_eq!(outcome.history.len(), budget);
    // The guard is only meaningful if the hyper-parameter search ran more
    // than once (an initial fit plus at least one re-search).
    let fits = tuner.surrogate_stats().map_or(0, |s| s.fits);
    assert!(fits >= 2, "{}: only {fits} GP fits", tuner.name());
    (runtime_digest(&outcome), recommendation_digest(&outcome))
}

/// Digest of GP fits on a session's history: the isotropic and ARD
/// hyper-parameter searches' final log marginal likelihoods and the
/// posterior at every training point. Trajectories only move when a
/// perturbation flips a decision; these bits move with any rounding change
/// in the covariance, the factorization or the search.
fn surrogate_digest(xs: &[Vec<f64>], ys: &[f64]) -> u64 {
    let iso = GaussianProcess::fit_auto(KernelKind::Matern52, xs.to_vec(), ys).expect("iso fit");
    let ard = GaussianProcess::fit_auto_ard(KernelKind::SquaredExponential, xs.to_vec(), ys)
        .expect("ard fit");
    let mut words = vec![
        iso.log_marginal_likelihood().to_bits(),
        ard.log_marginal_likelihood().to_bits(),
    ];
    for gp in [&iso, &ard] {
        for (mu, var) in gp.predict_batch(xs) {
            words.extend([mu.to_bits(), var.to_bits()]);
        }
    }
    fnv(words)
}

fn check(label: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{label}: trajectory digest moved (got ({:#018x}, {:#018x}))",
        got.0, got.1
    );
}

const ITUNED_DBMS: (u64, u64) = (0xeb2b_305a_bd49_b44a, 0x7c06_2a50_d43f_249c);
const OTTERTUNE_DBMS: (u64, u64) = (0x73b6_1253_da9c_e3f3, 0xc506_9f23_ba75_a6f3);

fn ituned_dbms() -> (u64, u64) {
    run(
        Box::new(DbmsSimulator::oltp_default()),
        Box::new(ITunedTuner::new()),
        30,
    )
}

fn ottertune_dbms() -> (u64, u64) {
    run(
        Box::new(DbmsSimulator::oltp_default()),
        Box::new(OtterTuneTuner::new(WorkloadRepository::new())),
        30,
    )
}

/// A repository of three past DBMS workloads, each its default run plus 15
/// seeded random configurations.
fn dbms_repository() -> WorkloadRepository {
    use autotune::sim::dbms::DbmsWorkload;
    use rand::SeedableRng;
    let mut repo = WorkloadRepository::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for (id, workload) in [
        ("oltp", DbmsWorkload::oltp()),
        ("olap", DbmsWorkload::olap()),
        ("mixed", DbmsWorkload::mixed()),
    ] {
        let mut sim = DbmsSimulator::new(NodeSpec::default(), workload);
        let mut obs = vec![sim.evaluate(&sim.space().default_config(), &mut rng)];
        for _ in 0..15 {
            let cfg = sim.space().random_config(&mut rng);
            obs.push(sim.evaluate(&cfg, &mut rng));
        }
        repo.add(id, obs);
    }
    repo
}

/// OtterTune warm-started from a three-workload repository: the mapped
/// prefix is calibrated onto the target each step, and the mapping flips
/// between "olap" and "mixed" four times during the session (after 6, 8,
/// 12 and 17 observations), so the surrogate is refitted on a new prefix.
fn ottertune_warm_dbms() -> (u64, u64) {
    run(
        Box::new(DbmsSimulator::olap_default()),
        Box::new(OtterTuneTuner::new(dbms_repository())),
        30,
    )
}

/// iTuned with two caller seeds and the DBMS rule book: the caller seeds
/// take slots 1 and 2 of the initial design, pushing the (capped) rule
/// seeds along.
fn ituned_seeded_constrained_dbms() -> (u64, u64) {
    use autotune::tuners::util::SearchConstraints;
    let sim = DbmsSimulator::olap_default();
    let space = sim.space().clone();
    let constraints = SearchConstraints::for_platform("dbms", &space).expect("dbms rule book");
    let mut work_mem = space.default_config();
    work_mem.set("work_mem_mb", ParamValue::Int(16));
    let mut buffers = space.default_config();
    buffers.set("shared_buffers_mb", ParamValue::Int(4096));
    run(
        Box::new(sim),
        Box::new(
            ITunedTuner::new()
                .with_seed_configs([work_mem, buffers])
                .with_constraints(constraints),
        ),
        30,
    )
}

const OTTERTUNE_WARM_DBMS: (u64, u64) = (0x1877_b41d_930f_0cbd, 0xfd9b_c536_3b84_ab68);
const ITUNED_SEEDED_CONSTRAINED_DBMS: (u64, u64) = (0xca63_7cb6_46af_bf73, 0xa398_1f20_5fe7_8b3d);

#[test]
fn ottertune_warm_dbms_trajectory_is_pinned() {
    check(
        "ottertune-warm/dbms-olap",
        ottertune_warm_dbms(),
        OTTERTUNE_WARM_DBMS,
    );
}

#[test]
fn ituned_seeded_constrained_trajectory_is_pinned() {
    check(
        "ituned-seeded-constrained/dbms-olap",
        ituned_seeded_constrained_dbms(),
        ITUNED_SEEDED_CONSTRAINED_DBMS,
    );
}

#[test]
fn ituned_dbms_trajectory_is_pinned() {
    check("ituned/dbms-oltp", ituned_dbms(), ITUNED_DBMS);
}

/// The hyper-parameter search forks onto spare cores when the process has
/// any free, and runs serially otherwise; either way it must produce the
/// same bits. The standalone tests above and below pin each session where
/// its fits may take a spare core; here each runs as two copies inside one
/// `par_map`, which holds the spare core itself (on a two-core host, the
/// only one), so the copies' fits find no token and run serially.
#[test]
fn trajectories_are_pinned_when_fits_run_serially() {
    use autotune::math::batch::par_map;
    for (label, session, want) in [
        ("ituned/dbms-oltp", ituned_dbms as fn() -> _, ITUNED_DBMS),
        ("ottertune/dbms-oltp", ottertune_dbms, OTTERTUNE_DBMS),
        (
            "ottertune-warm/dbms-olap",
            ottertune_warm_dbms,
            OTTERTUNE_WARM_DBMS,
        ),
        (
            "ituned-seeded-constrained/dbms-olap",
            ituned_seeded_constrained_dbms,
            ITUNED_SEEDED_CONSTRAINED_DBMS,
        ),
    ] {
        for got in par_map(&[0, 1], |_| session()) {
            check(&format!("{label} in a parallel region"), got, want);
        }
    }
}

#[test]
fn gp_fits_on_a_session_history_are_pinned() {
    let mut db = DbmsSimulator::oltp_default();
    let outcome = tune(&mut db, &mut ITunedTuner::new(), 30, 7);
    let (xs, ys) = outcome.history.training_set(db.space());
    let got = surrogate_digest(&xs, &ys);
    assert_eq!(
        got, 0x3c7a_c213_43cf_5d97,
        "GP fit digest moved (got {got:#018x})"
    );
}

#[test]
fn ottertune_dbms_trajectory_is_pinned() {
    check("ottertune/dbms-oltp", ottertune_dbms(), OTTERTUNE_DBMS);
}

#[test]
fn ottertune_spark_trajectory_is_pinned() {
    let got = run(
        Box::new(SparkSimulator::aggregation_default()),
        Box::new(OtterTuneTuner::new(WorkloadRepository::new())),
        30,
    );
    check(
        "ottertune/spark-agg",
        got,
        (0x7d0e_2b16_bb67_cb5a, 0xb649_ead4_261a_7970),
    );
}

/// Runs constrained iTuned and OtterTune on one platform scenario and
/// checks both digests.
fn check_constrained(
    system: &str,
    platform: &str,
    make: fn() -> Box<dyn Objective>,
    ituned: (u64, u64),
    ottertune: (u64, u64),
) {
    use autotune::tuners::util::SearchConstraints;
    let constraints = SearchConstraints::for_platform(platform, make().space())
        .expect("platform has a rule book");
    let got = run(
        make(),
        Box::new(ITunedTuner::new().with_constraints(constraints.clone())),
        30,
    );
    check(&format!("constrained ituned/{system}"), got, ituned);
    let got = run(
        make(),
        Box::new(OtterTuneTuner::new(WorkloadRepository::new()).with_constraints(constraints)),
        30,
    );
    check(&format!("constrained ottertune/{system}"), got, ottertune);
}

/// Constrained iTuned and OtterTune runs: the rule-book seeds and SPEX
/// projection on both tuners' constrained code paths. Captured from the
/// JSON-artifact constraints the in-process ones replaced.
#[test]
fn constrained_trajectories_are_pinned() {
    check_constrained(
        "dbms-olap",
        "dbms",
        || Box::new(DbmsSimulator::olap_default()),
        (0x8307_e1a1_42db_b507, 0xa04f_3ae2_c935_4b24),
        (0xf6ec_c3a6_3c60_7af0, 0xe46c_ddf9_62a7_b00a),
    );
    check_constrained(
        "hadoop-terasort",
        "hadoop",
        || Box::new(HadoopSimulator::terasort_default()),
        (0xdf46_fc55_fe08_01e6, 0x944c_a4d4_8d41_37be),
        (0x709f_d94a_cfc1_4092, 0x68ba_ef0b_36e4_ce8c),
    );
    check_constrained(
        "spark-agg",
        "spark",
        || Box::new(SparkSimulator::aggregation_default()),
        (0x2201_60bd_518c_3fe6, 0x1492_8d0a_907e_ee4c),
        (0xdde9_3530_b963_5e64, 0x24d9_3f99_283b_a421),
    );
}
