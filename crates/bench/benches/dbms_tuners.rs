//! Table 2 regenerated under `cargo bench`: small sessions of the eleven
//! surveyed DBMS approaches.

use autotune_bench::harness::{dbms_tuner_zoo, run_session};
use autotune_core::Objective;
use autotune_sim::{DbmsSimulator, NoiseModel};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_zoo(c: &mut Criterion) {
    let factory = || {
        Box::new(DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic()))
            as Box<dyn Objective>
    };
    let mut group = c.benchmark_group("table2_dbms_session_8_evals");
    for (label, _) in dbms_tuner_zoo() {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut tuner = dbms_tuner_zoo()
                    .into_iter()
                    .find(|(l, _)| *l == label)
                    .expect("exists")
                    .1;
                black_box(run_session(&factory, tuner.as_mut(), 8, 3).0.speedup)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_zoo
}
criterion_main!(benches);
