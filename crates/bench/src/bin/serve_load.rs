//! Committed-load benchmark for the serve layer: K concurrent sessions
//! driven over real TCP by C client threads, measuring observations/sec
//! throughput, advance-latency percentiles, and the 429 admission rate.
//!
//! Under `fsync` durability the daemon batches every session's records
//! through the shared group-commit journal, and the report carries its
//! batch statistics; under `flush` each session appends directly.
//!
//! ```sh
//! cargo run --release -p autotune-bench --bin serve_load -- \
//!     --sessions 1000 --clients 32 --budget 32 --steps 32 \
//!     --workers 1 --queue-cap 64 --durability fsync
//! ```

use autotune_core::SessionId;
use autotune_serve::metrics::MetricsReport;
use autotune_serve::server::{AdvanceResponse, CreateResponse, Daemon, DaemonConfig};
use autotune_serve::wal::Durability;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct LoadSpec {
    sessions: usize,
    budget: usize,
    steps: usize,
    clients: usize,
    system: String,
    tuner: String,
    workers: usize,
    queue_cap: usize,
    snapshot_every: usize,
    durability: Durability,
    data_dir: Option<String>,
    addr: Option<String>,
}

/// The measured run of the load against the daemon.
#[derive(Serialize)]
struct RunResult {
    /// `group` (shared journal, batched fsync — the `fsync` mode),
    /// `direct` (per-session appends — `flush`) or `external`.
    wal_mode: String,
    /// Durability mode the daemon ran with.
    durability: String,
    /// Wall clock of the session-creation phase (s).
    create_secs: f64,
    /// Wall clock of the advance phase (s).
    advance_secs: f64,
    /// Tuner evaluations driven during the advance phase.
    evaluations: u64,
    /// evaluations / advance_secs — the headline throughput.
    obs_per_sec: f64,
    /// Advance requests issued (including retried ones).
    advance_requests: u64,
    /// Requests answered 429 (queue full); each was retried.
    rejected_429: u64,
    /// rejected / (accepted + rejected).
    admission_reject_rate: f64,
    /// Advance latency percentiles over accepted requests (ms).
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    /// Mean records per group-commit batch (from `/metrics`, `fsync`).
    group_mean_batch: Option<f64>,
    /// Largest group-commit batch observed.
    group_max_batch: Option<u64>,
}

#[derive(Serialize)]
struct LoadReport {
    /// Commit the daemon was built from.
    commit: String,
    /// Cores available to the process.
    cores: usize,
    sessions: usize,
    budget: usize,
    steps_per_request: usize,
    clients: usize,
    workers: usize,
    queue_cap: usize,
    /// Observations between mid-run snapshot compactions.
    snapshot_every: usize,
    system: String,
    tuner: String,
    run: RunResult,
}

/// Minimal HTTP client: one request per connection, returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .expect("timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn percentile_ms(sorted_micros: &[u64], q: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_micros.len() as f64).ceil() as usize).clamp(1, sorted_micros.len());
    sorted_micros[rank - 1] as f64 / 1000.0
}

/// Drives the full load against a running daemon at `addr`.
fn drive(spec: &LoadSpec, addr: SocketAddr, wal_mode: &str) -> RunResult {
    // Phase 1: create K sessions from the client threads.
    let create_ids: Arc<Mutex<Vec<SessionId>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..spec.clients {
            let ids = Arc::clone(&create_ids);
            let spec = &*spec;
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut k = c;
                while k < spec.sessions {
                    let body = format!(
                        "{{\"system\":\"{}\",\"tuner\":\"{}\",\"seed\":{},\
                         \"budget\":{},\"noise\":\"none\",\"warm_start\":false}}",
                        spec.system, spec.tuner, k as u64, spec.budget
                    );
                    let (status, payload) = request(addr, "POST", "/sessions", &body);
                    assert_eq!(status, 201, "create failed: {payload}");
                    let created: CreateResponse =
                        serde_json::from_str(&payload).expect("create response");
                    mine.push(created.id);
                    k += spec.clients;
                }
                ids.lock().expect("ids lock").extend(mine);
            });
        }
    });
    let create_secs = t0.elapsed().as_secs_f64();
    let ids = create_ids.lock().expect("ids lock").clone();
    assert_eq!(ids.len(), spec.sessions);

    // Phase 2: round-robin advance until every session is terminal. A
    // client pops a session, drives `steps` evaluations, and requeues it
    // while it is still running; 429s are counted and retried.
    let queue: Arc<Mutex<VecDeque<SessionId>>> = Arc::new(Mutex::new(ids.into_iter().collect()));
    let evaluations = AtomicU64::new(0);
    let requests = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..spec.clients {
            let queue = Arc::clone(&queue);
            let latencies = Arc::clone(&latencies);
            let (evals, reqs, rej) = (&evaluations, &requests, &rejected);
            let spec = &*spec;
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let id = match queue.lock().expect("queue lock").pop_front() {
                        Some(id) => id,
                        None => break,
                    };
                    let body = format!("{{\"steps\":{}}}", spec.steps);
                    let path = format!("/sessions/{id}/advance");
                    let t = Instant::now();
                    let (status, payload) = request(addr, "POST", &path, &body);
                    let micros = t.elapsed().as_micros() as u64;
                    reqs.fetch_add(1, Ordering::Relaxed);
                    match status {
                        200 => {
                            mine.push(micros);
                            let adv: AdvanceResponse =
                                serde_json::from_str(&payload).expect("advance response");
                            evals.fetch_add(adv.ran as u64, Ordering::Relaxed);
                            if adv.status == "running" {
                                queue.lock().expect("queue lock").push_back(id);
                            }
                        }
                        429 => {
                            rej.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(2));
                            queue.lock().expect("queue lock").push_back(id);
                        }
                        other => panic!("advance returned {other}: {payload}"),
                    }
                }
                latencies.lock().expect("latency lock").extend(mine);
            });
        }
    });
    let advance_secs = t0.elapsed().as_secs_f64();

    // Group-commit batch stats come from the daemon's own /metrics.
    let (status, metrics_body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "metrics failed");
    let metrics: MetricsReport = serde_json::from_str(&metrics_body).expect("metrics json");
    let group_mean_batch = metrics.group_commit.as_ref().map(|g| g.mean_batch);
    let group_max_batch = metrics.group_commit.as_ref().map(|g| g.max_batch);

    let mut micros = latencies.lock().expect("latency lock").clone();
    micros.sort_unstable();
    let evaluations = evaluations.load(Ordering::Relaxed);
    let advance_requests = requests.load(Ordering::Relaxed);
    let rejected_429 = rejected.load(Ordering::Relaxed);
    let mean_ms = if micros.is_empty() {
        0.0
    } else {
        micros.iter().sum::<u64>() as f64 / micros.len() as f64 / 1000.0
    };
    RunResult {
        wal_mode: wal_mode.to_string(),
        durability: spec.durability.label().to_string(),
        create_secs,
        advance_secs,
        evaluations,
        obs_per_sec: evaluations as f64 / advance_secs.max(1e-9),
        advance_requests,
        rejected_429,
        admission_reject_rate: rejected_429 as f64 / (advance_requests.max(1)) as f64,
        p50_ms: percentile_ms(&micros, 0.50),
        p95_ms: percentile_ms(&micros, 0.95),
        p99_ms: percentile_ms(&micros, 0.99),
        mean_ms,
        group_mean_batch,
        group_max_batch,
    }
}

/// Starts an in-process daemon, drives the load, and shuts it down.
fn run_load(spec: &LoadSpec) -> RunResult {
    if let Some(addr) = &spec.addr {
        // External daemon: its WAL mode is whatever it was started with.
        let addr: SocketAddr = addr.parse().expect("parse --addr");
        return drive(spec, addr, "external");
    }
    let wal_mode = match spec.durability {
        Durability::Fsync => "group",
        Durability::Flush => "direct",
    };
    let root = match &spec.data_dir {
        Some(dir) => std::path::PathBuf::from(dir).join(wal_mode),
        None => std::env::temp_dir().join(format!(
            "autotune-serve-load-{}-{wal_mode}",
            std::process::id()
        )),
    };
    let _ = std::fs::remove_dir_all(&root);
    let mut config = DaemonConfig::new(&root);
    config.workers = spec.workers;
    config.queue_cap = spec.queue_cap;
    config.snapshot_every = spec.snapshot_every;
    config.durability = spec.durability;
    let daemon = Daemon::start("127.0.0.1:0", config).expect("start daemon");
    let addr = daemon.addr();
    eprintln!(
        "serve_load: wal={wal_mode} durability={} addr={addr} \
         sessions={} clients={}",
        spec.durability.label(),
        spec.sessions,
        spec.clients
    );
    let result = drive(spec, addr, wal_mode);
    daemon.graceful_shutdown();
    let _ = std::fs::remove_dir_all(&root);
    result
}

/// Every flag `serve_load` accepts; each takes one value.
const FLAGS: [&str; 13] = [
    "sessions",
    "budget",
    "steps",
    "clients",
    "system",
    "tuner",
    "workers",
    "queue-cap",
    "snapshot-every",
    "durability",
    "data-dir",
    "addr",
    "out",
];

/// Parses the command line into the load's shape and the report name. An
/// unknown flag, a flag without a value, a stray word, a malformed number
/// or an unknown durability mode is an error, so a stale comparison
/// command never silently measures a different shape.
fn parse_args(args: &[String]) -> Result<(LoadSpec, String), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|key| FLAGS.contains(key))
            .ok_or_else(|| format!("unknown argument '{arg}'"))?;
        let value = rest
            .next()
            .ok_or_else(|| format!("--{key} expects a value"))?;
        flags.insert(key, value);
    }
    let num = |key: &str, default: usize| -> Result<usize, String> {
        flags.get(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key} expects a number, got '{v}'"))
        })
    };
    let text = |key: &str, default: &str| flags.get(key).unwrap_or(&default).to_string();
    let budget = num("budget", 4)?;
    let durability = match flags.get("durability") {
        Some(mode) => Durability::parse(mode).map_err(|e| e.to_string())?,
        None => Durability::Flush,
    };
    let spec = LoadSpec {
        sessions: num("sessions", 64)?,
        budget,
        steps: num("steps", 2)?,
        clients: num("clients", 16)?,
        system: text("system", "dbms-oltp"),
        tuner: text("tuner", "random"),
        workers: num("workers", 4)?.max(1),
        queue_cap: num("queue-cap", 32)?.max(1),
        // Default: compact only at session finish. Mid-run snapshot
        // cadence (un-batched fsyncs on the worker thread) is a
        // recovery-cost knob, not an append cost; keep it out of the
        // append-path measurement by default.
        snapshot_every: num("snapshot-every", budget)?.max(1),
        durability,
        data_dir: flags.get("data-dir").map(|d| d.to_string()),
        addr: flags.get("addr").map(|a| a.to_string()),
    };
    Ok((spec, text("out", "serve_load")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("serve_load: {e}");
            return ExitCode::FAILURE;
        }
    };

    let run = run_load(&spec);
    println!(
        "wal={} durability={} obs/sec={:.0} p50={:.2}ms p95={:.2}ms \
         p99={:.2}ms rejected_429={} ({:.2}%)",
        run.wal_mode,
        run.durability,
        run.obs_per_sec,
        run.p50_ms,
        run.p95_ms,
        run.p99_ms,
        run.rejected_429,
        run.admission_reject_rate * 100.0
    );
    let report = LoadReport {
        commit: autotune_bench::git_commit(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        sessions: spec.sessions,
        budget: spec.budget,
        steps_per_request: spec.steps,
        clients: spec.clients,
        workers: spec.workers,
        queue_cap: spec.queue_cap,
        snapshot_every: spec.snapshot_every,
        system: spec.system.clone(),
        tuner: spec.tuner.clone(),
        run,
    };
    autotune_bench::write_json(&out, &report);
    eprintln!("wrote bench_results/{out}.json");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(LoadSpec, String), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn every_flag_sets_its_value() {
        let (spec, out) = parse(
            "--sessions 3 --budget 5 --steps 2 --clients 4 --system spark-agg \
             --tuner ituned --workers 2 --queue-cap 6 --snapshot-every 7 \
             --durability fsync --data-dir /d --addr 127.0.0.1:9 --out run",
        )
        .unwrap();
        assert_eq!((spec.sessions, spec.budget, spec.steps), (3, 5, 2));
        assert_eq!((spec.clients, spec.workers, spec.queue_cap), (4, 2, 6));
        assert_eq!(
            (spec.system.as_str(), spec.tuner.as_str()),
            ("spark-agg", "ituned")
        );
        assert_eq!(spec.snapshot_every, 7);
        assert_eq!(spec.durability, Durability::Fsync);
        assert_eq!(spec.data_dir.as_deref(), Some("/d"));
        assert_eq!(spec.addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(out, "run");
    }

    #[test]
    fn no_flags_keep_the_defaults() {
        let (spec, out) = parse("").unwrap();
        assert_eq!((spec.sessions, spec.budget, spec.steps), (64, 4, 2));
        assert_eq!((spec.clients, spec.workers, spec.queue_cap), (16, 4, 32));
        assert_eq!(spec.snapshot_every, 4, "defaults to the budget");
        assert_eq!(spec.durability, Durability::Flush);
        assert_eq!(out, "serve_load");
    }

    #[test]
    fn unknown_flags_and_stray_words_are_refused() {
        let err = parse("--sessions 2 --wrokers 3").unwrap_err();
        assert!(err.contains("'--wrokers'"), "{err}");
        assert!(parse("--shards 4").is_err());
        assert!(parse("--workers 1 extra").is_err());
        assert!(parse("-w 1").is_err());
        assert!(parse("--workers").unwrap_err().contains("expects a value"));
    }

    #[test]
    fn malformed_numbers_and_modes_are_refused() {
        let err = parse("--workers three").unwrap_err();
        assert_eq!(err, "--workers expects a number, got 'three'");
        assert!(parse("--budget -1").is_err());
        assert!(parse("--durability paranoid").is_err());
    }
}
