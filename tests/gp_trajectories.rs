//! Trajectory guard for the GP tuners: seeded iTuned and OtterTune
//! sessions must reproduce their exact observation sequence and
//! recommendation. The GP fit path (covariance assembly, Cholesky
//! factorization, hyper-parameter search) is optimized under a
//! bit-identity contract; any change that perturbs a single rounding step
//! anywhere in it moves these digests.
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

const ITUNED_DBMS: (u64, u64) = (0xf556_57bf_5fd5_d48e, 0x52b6_e462_6020_b1ac);
const ITUNED_ARD_SPARK: (u64, u64) = (0xddf1_5b47_51c5_c45e, 0x6cd0_49df_52d5_d784);
const OTTERTUNE_DBMS: (u64, u64) = (0xc284_c7fd_9adb_582c, 0x730b_798a_97b5_fe81);

fn ituned_dbms() -> (u64, u64) {
    run(
        Box::new(DbmsSimulator::oltp_default()),
        Box::new(ITunedTuner::new()),
        30,
    )
}

fn ituned_ard_spark() -> (u64, u64) {
    run(
        Box::new(SparkSimulator::aggregation_default()),
        Box::new(ITunedTuner::new().with_ard()),
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

/// iTuned on the Nyström surrogate with a budget below the session's
/// length: every step between searches goes through the sparse `update`.
fn ituned_nystrom_spark() -> (u64, u64) {
    use autotune::math::surrogate::SurrogateConfig;
    run(
        Box::new(SparkSimulator::aggregation_default()),
        Box::new(ITunedTuner::new().with_surrogate(SurrogateConfig::nystrom(12))),
        30,
    )
}

const OTTERTUNE_WARM_DBMS: (u64, u64) = (0x065b_036c_5bc6_b318, 0xa5e0_e886_20a0_bf1e);
const ITUNED_SEEDED_CONSTRAINED_DBMS: (u64, u64) = (0xddae_fb50_4182_74d8, 0xceab_1088_5c08_02bf);
const ITUNED_NYSTROM_SPARK: (u64, u64) = (0x50bd_a046_3967_0160, 0xbeda_b3b3_7711_6801);

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
fn ituned_nystrom_trajectory_is_pinned() {
    check(
        "ituned-nystrom/spark-agg",
        ituned_nystrom_spark(),
        ITUNED_NYSTROM_SPARK,
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
        ("ituned-ard/spark-agg", ituned_ard_spark, ITUNED_ARD_SPARK),
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
        (
            "ituned-nystrom/spark-agg",
            ituned_nystrom_spark,
            ITUNED_NYSTROM_SPARK,
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
        got, 0x470d_270d_44e8_2963,
        "GP fit digest moved (got {got:#018x})"
    );
}

#[test]
fn ituned_ard_spark_trajectory_is_pinned() {
    check("ituned-ard/spark-agg", ituned_ard_spark(), ITUNED_ARD_SPARK);
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
        (0x0b5e_11d7_3d13_3413, 0x419b_0d39_69b7_ed48),
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
        (0x0dab_2ceb_5547_3092, 0x75c4_52bc_d7be_465c),
        (0xcf4c_68cd_cb58_5422, 0x08f1_bcb7_8e01_b610),
    );
    check_constrained(
        "hadoop-terasort",
        "hadoop",
        || Box::new(HadoopSimulator::terasort_default()),
        (0x590f_8c57_4a19_70e5, 0x9472_2307_43f3_c329),
        (0xd16b_17d7_db40_291c, 0x1b26_58c9_c56a_5b30),
    );
    check_constrained(
        "spark-agg",
        "spark",
        || Box::new(SparkSimulator::aggregation_default()),
        (0xd2ce_845b_87cd_2c1a, 0x5ba3_0654_3cb0_1808),
        (0xdb2a_3499_75c7_50f9, 0x34b7_a814_5577_5b2b),
    );
}
