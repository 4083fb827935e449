//! One registry of every deterministic experiment: Tables 1 and 2, the
//! prose claims C1–C7, the design ablations, the convergence curves, the
//! §2.5 provisioning what-if, and the `constrained_search` and
//! `drift_recovery` proof experiments. Each entry runs at full scale with
//! fixed seeds and budgets, prints its result and writes one artifact,
//! `bench_results/<artifact>.json`. The artifacts are committed, and CI
//! regenerates them and fails on any byte that changed.
//!
//! ```text
//! cargo run --release -p autotune-bench --bin claims -- list
//! cargo run --release -p autotune-bench --bin claims -- run <name>|all
//! ```

use autotune_bench::exec::SessionExecutor;
use autotune_bench::harness::family_representatives;
use autotune_bench::{ablation, claims, constrained_search, drift_recovery, table1, table2};
use autotune_core::{tune, Objective, Observation, SystemKind};
use autotune_sim::hadoop::{benchmark_config, HadoopSimulator};
use autotune_sim::{DbmsSimulator, NoiseModel};
use autotune_tuners::cost::{Elastisizer, InstanceType, JobProfile, ProvisioningPlan};
use serde::{Serialize, Value};

/// Runs an experiment: the text to print, and the artifact.
type Run = fn() -> (String, Box<dyn Serialize>);

/// One experiment and the artifact it writes.
struct Entry {
    /// Name on the command line.
    name: &'static str,
    /// `run` writes `bench_results/<artifact>.json`.
    artifact: &'static str,
    run: Run,
}

impl Entry {
    const fn new(name: &'static str, artifact: &'static str, run: Run) -> Entry {
        Entry {
            name,
            artifact,
            run,
        }
    }
}

/// An artifact printed through the shared renderer.
fn rendered<T: Serialize + 'static>(artifact: T) -> (String, Box<dyn Serialize>) {
    (render(&artifact.to_value()), Box::new(artifact))
}

const REGISTRY: &[Entry] = &[
    Entry::new("table1", "table1", || {
        let (report, overheads) = table1::run(25, 7);
        let text = table1::render(&report, &overheads)
            + "\n(overhead: the tuner's wall clock, printed only; \
               `cargo bench --bench tuner_overhead` measures it)\n";
        (text, Box::new(report))
    }),
    Entry::new("table2", "table2", || {
        let rows = table2::run(7);
        (table2::render(&rows), Box::new(rows))
    }),
    Entry::new("speedup_claim", "c1_speedup_claim", || {
        rendered(claims::speedup_claim(7))
    }),
    Entry::new("hadoop_vs_db", "c2_hadoop_gap", || {
        rendered(claims::hadoop_gap(7))
    }),
    Entry::new("spark_sensitivity", "c3_sensitivity", || {
        rendered(claims::knob_sensitivity())
    }),
    Entry::new("interactions", "c4_interactions", || {
        rendered(claims::interactions())
    }),
    Entry::new("adhoc_adaptive", "c5_adhoc", || {
        rendered(claims::adhoc_comparison(30, 7))
    }),
    Entry::new("ml_training_size", "c6_training_size", || {
        rendered(claims::ml_training_size(&[5, 10, 20, 40, 80], 7))
    }),
    Entry::new("heterogeneity", "c7_heterogeneity", || {
        rendered(claims::heterogeneity(7))
    }),
    Entry::new("ablation_acquisition", "ablation_acquisition", || {
        rendered(ablation::acquisition_ablation(18, 5))
    }),
    Entry::new("ablation_init", "ablation_init", || {
        rendered(ablation::init_ablation(18, 5))
    }),
    Entry::new("ablation_ranking", "ablation_ranking", || {
        rendered(ablation::ranking_ablation(7))
    }),
    Entry::new("convergence", "convergence", || {
        rendered(convergence(40, 7))
    }),
    Entry::new("provisioning", "provisioning", || rendered(provisioning())),
    Entry::new("constrained_search", "constrained_search", || {
        rendered(constrained_search::run())
    }),
    Entry::new("drift_recovery", "drift_recovery", || {
        rendered(drift_recovery::run())
    }),
];

/// Best-so-far runtime after each experiment for one family
/// representative: the classic convergence figure.
#[derive(Serialize)]
struct Series {
    tuner: String,
    family: String,
    best_so_far: Vec<f64>,
}

/// One session per family representative on the OLTP DBMS, fanned over
/// the executor; results come back in family order.
fn convergence(budget: usize, seed: u64) -> Vec<Series> {
    SessionExecutor::from_env().run(
        (0..family_representatives(SystemKind::Dbms).len())
            .map(|fi| {
                move || {
                    let (label, mut tuner) = family_representatives(SystemKind::Dbms)
                        .into_iter()
                        .nth(fi)
                        .expect("family index in range");
                    let mut sim = DbmsSimulator::oltp_default().with_noise(NoiseModel::realistic());
                    let out = tune(&mut sim, tuner.as_mut(), budget, seed);
                    Series {
                        tuner: tuner.name().to_string(),
                        family: label.to_string(),
                        best_so_far: out.history.best_so_far(),
                    }
                }
            })
            .collect(),
    )
}

/// The §2.5 cloud-provisioning what-if: every cluster shape for a
/// TeraSort 32 GB job, and the cheapest shape within each deadline.
#[derive(Serialize)]
struct Provisioning {
    /// Every (instance type, node count), with the time/cost Pareto flag.
    plans: Vec<ProvisioningPlan>,
    /// The cheapest plan within each deadline (null when none meets it).
    deadlines: Vec<DeadlineAnswer>,
}

#[derive(Serialize)]
struct DeadlineAnswer {
    deadline_secs: f64,
    cheapest: Option<ProvisioningPlan>,
}

/// Elastisizer-style sizing from one profiling run on the current
/// (8-node medium) cluster.
fn provisioning() -> Provisioning {
    let sim = HadoopSimulator::terasort_default().with_noise(NoiseModel::none());
    let default = sim.space().default_config();
    let run = sim.simulate(&default);
    let obs = Observation {
        config: default,
        runtime_secs: run.runtime_secs,
        cost: run.runtime_secs,
        metrics: run.metrics,
        failed: false,
    };
    let job = JobProfile::estimate(&obs, &sim.profile());
    let engine = Elastisizer::new(job, benchmark_config(&sim.cluster));
    let (catalogue, nodes) = (InstanceType::catalogue(), [2, 4, 8, 16, 32]);
    Provisioning {
        plans: engine.enumerate(&catalogue, &nodes),
        deadlines: [60.0, 180.0, 600.0]
            .into_iter()
            .map(|deadline_secs| DeadlineAnswer {
                deadline_secs,
                cheapest: engine.cheapest_within_deadline(&catalogue, &nodes, deadline_secs),
            })
            .collect(),
    }
}

/// The shared renderer. A list of records becomes an aligned table with
/// one column per field; a record prints one `field: value` line per
/// field, with its lists of records as tables beneath.
fn render(v: &Value) -> String {
    match v {
        Value::Seq(rows) if is_table(rows) => table(rows),
        Value::Map(fields) => fields
            .iter()
            .map(|(k, f)| match f {
                Value::Seq(rows) if is_table(rows) => format!("{k}:\n{}", table(rows)),
                _ => format!("{k}: {}\n", cell(f)),
            })
            .collect(),
        _ => cell(v) + "\n",
    }
}

fn is_table(rows: &[Value]) -> bool {
    !rows.is_empty() && rows.iter().all(|r| r.as_map().is_some())
}

fn table(rows: &[Value]) -> String {
    fn fields(r: &Value) -> &[(String, Value)] {
        r.as_map().unwrap_or_default()
    }
    let mut lines: Vec<Vec<String>> = vec![fields(&rows[0]).iter().map(|f| f.0.clone()).collect()];
    lines.extend(
        rows.iter()
            .map(|r| fields(r).iter().map(|f| cell(&f.1)).collect()),
    );
    let mut widths = vec![0; lines[0].len()];
    for line in &lines {
        for (w, s) in widths.iter_mut().zip(line) {
            *w = (*w).max(s.chars().count());
        }
    }
    lines
        .iter()
        .map(|line| {
            let padded: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(s, &w)| format!("{s:<w$}"))
                .collect();
            padded.join("  ").trim_end().to_string() + "\n"
        })
        .collect()
}

/// One value as a table cell: floats to three decimals (whole from 100
/// up, or when whole), short lists inline, long lists by their ends and
/// length.
fn cell(v: &Value) -> String {
    match v {
        Value::Null => "-".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) if f.abs() >= 100.0 || f.fract() == 0.0 => format!("{f:.0}"),
        Value::Float(f) => format!("{f:.3}"),
        Value::Text(s) => s.clone(),
        Value::Seq(items) if items.len() <= 6 => {
            let cells: Vec<String> = items.iter().map(cell).collect();
            format!("[{}]", cells.join(" "))
        }
        Value::Seq(items) => format!(
            "[{} … {}] ({} items)",
            cell(&items[0]),
            cell(&items[items.len() - 1]),
            items.len()
        ),
        Value::Map(fields) => {
            let cells: Vec<String> = fields
                .iter()
                .map(|(k, f)| format!("{k}={}", cell(f)))
                .collect();
            cells.join(" ")
        }
    }
}

/// Runs one entry, prints it and writes its artifact.
fn run(entry: &Entry) {
    println!(
        "== {} -> bench_results/{}.json ==",
        entry.name, entry.artifact
    );
    let (text, artifact) = (entry.run)();
    println!("{text}");
    autotune_bench::write_json(entry.artifact, &artifact);
}

fn fail(msg: &str) -> ! {
    eprintln!("claims: {msg}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["list"] => {
            for e in REGISTRY {
                println!("{}\tbench_results/{}.json", e.name, e.artifact);
            }
        }
        ["run", "all"] => REGISTRY.iter().for_each(run),
        ["run", name] => match REGISTRY.iter().find(|e| e.name == *name) {
            Some(entry) => run(entry),
            None => fail(&format!("unknown entry `{name}` (see `claims list`)")),
        },
        _ => fail("usage: claims list | claims run <name>|all"),
    }
}
