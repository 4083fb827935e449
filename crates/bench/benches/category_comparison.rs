//! Table 1 regenerated under `cargo bench`: full (small-budget) tuning
//! sessions for every family representative on the DBMS.

use autotune_bench::harness::{family_representatives, run_session};
use autotune_core::{Objective, SystemKind};
use autotune_sim::{DbmsSimulator, NoiseModel};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_families(c: &mut Criterion) {
    let factory = || {
        Box::new(DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic()))
            as Box<dyn Objective>
    };
    let mut group = c.benchmark_group("table1_family_session_8_evals");
    for (label, _) in family_representatives(SystemKind::Dbms) {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut tuner = family_representatives(SystemKind::Dbms)
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
    targets = bench_families
}
criterion_main!(benches);
