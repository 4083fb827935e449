//! Parallel execution must not change results: for fixed seeds, a report
//! computed on N worker threads is identical to the sequential one.

use autotune_bench::exec::{EvalMemo, SessionExecutor};
use autotune_bench::harness::{run_session, run_session_memo};
use autotune_bench::{table1, table2};
use autotune_core::Objective;
use autotune_sim::{DbmsSimulator, NoiseModel};
use autotune_tuners::baselines::RandomSearchTuner;

#[test]
fn table1_parallel_equals_sequential() {
    let (seq, _) = table1::run_with(&SessionExecutor::with_threads(1), 6, 11);
    let (par, _) = table1::run_with(&SessionExecutor::with_threads(3), 6, 11);
    assert_eq!(
        serde_json::to_string(&seq).expect("serialize"),
        serde_json::to_string(&par).expect("serialize"),
    );
}

#[test]
fn table2_parallel_equals_sequential() {
    let seq = table2::run_with(&SessionExecutor::with_threads(1), 11);
    let par = table2::run_with(&SessionExecutor::with_threads(4), 11);
    // Table2Row is pure text — measured values are embedded in strings —
    // so byte-identity holds directly.
    assert_eq!(
        serde_json::to_string(&seq).expect("serialize"),
        serde_json::to_string(&par).expect("serialize"),
    );
}

#[test]
fn memoized_session_matches_direct_session() {
    let factory: Box<dyn Fn() -> Box<dyn Objective>> =
        Box::new(|| Box::new(DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic())));
    let memo = EvalMemo::new();
    let mut t1 = RandomSearchTuner;
    let (direct, _) = run_session(factory.as_ref(), &mut t1, 8, 5);
    let mut t2 = RandomSearchTuner;
    let (first, _) = run_session_memo(factory.as_ref(), &mut t2, 8, 5, &memo, "det/oltp");
    let mut t3 = RandomSearchTuner;
    let (replayed, _) = run_session_memo(factory.as_ref(), &mut t3, 8, 5, &memo, "det/oltp");
    assert_eq!(memo.misses(), 1);
    assert_eq!(memo.hits(), 1);
    for row in [&first, &replayed] {
        assert_eq!(direct.speedup.to_bits(), row.speedup.to_bits());
        assert_eq!(direct.best_runtime.to_bits(), row.best_runtime.to_bits());
        assert_eq!(
            direct.worst_over_default.to_bits(),
            row.worst_over_default.to_bits()
        );
        assert_eq!(direct.distinct_runs, row.distinct_runs);
    }
}
