//! End-to-end tests of the HTTP API: an in-process daemon on an ephemeral
//! port, driven over real TCP connections.

use autotune_serve::metrics::MetricsReport;
use autotune_serve::server::{
    AdvanceResponse, CreateResponse, Daemon, DaemonConfig, SessionDetail, SessionSummary,
};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("autotune-http-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// Minimal test client: one request per connection, returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
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

fn spec_json(system: &str, tuner: &str, seed: u64, budget: usize, warm: bool) -> String {
    format!(
        "{{\"system\":\"{system}\",\"tuner\":\"{tuner}\",\"seed\":{seed},\
         \"budget\":{budget},\"noise\":\"none\",\"warm_start\":{warm}}}"
    )
}

#[test]
fn full_session_lifecycle_over_http() {
    let root = fresh_root("lifecycle");
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
    let addr = daemon.addr();

    // Health and empty listing.
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let (status, body) = request(addr, "GET", "/sessions", None);
    assert_eq!(status, 200);
    let rows: Vec<SessionSummary> = serde_json::from_str(&body).expect("rows");
    assert!(rows.is_empty());

    // Create.
    let (status, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 42, 5, false)),
    );
    assert_eq!(status, 201, "{body}");
    let created: CreateResponse = serde_json::from_str(&body).expect("created");
    assert!(created.baseline_runtime > 0.0);
    assert_eq!(created.status, "running");
    let id = created.id;

    // Advance partially, then to completion.
    let (status, body) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/advance"),
        Some("{\"steps\":3}"),
    );
    assert_eq!(status, 200, "{body}");
    let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert_eq!((adv.ran, adv.evaluations), (3, 3));
    assert_eq!(adv.status, "running");

    let (status, body) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/advance"),
        Some("{\"steps\":10}"),
    );
    assert_eq!(status, 200, "{body}");
    let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert_eq!((adv.ran, adv.evaluations), (2, 5), "budget caps the steps");
    assert_eq!(adv.status, "finished");

    // Detail carries the recommendation; advancing again is an
    // idempotent 200 observing the final state (`ran: 0`).
    let (status, body) = request(addr, "GET", &format!("/sessions/{id}"), None);
    assert_eq!(status, 200);
    let detail: SessionDetail = serde_json::from_str(&body).expect("detail");
    assert_eq!(detail.remaining_budget, 0);
    assert!(detail.recommendation.is_some());
    let (status, body) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/advance"),
        Some("{\"steps\":1}"),
    );
    assert_eq!(status, 200, "{body}");
    let again: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert_eq!((again.ran, again.status.as_str()), (0, "finished"));
    let (status, _) = request(addr, "POST", &format!("/sessions/{id}/cancel"), None);
    assert_eq!(status, 409, "finished sessions cannot be cancelled");

    // CSV export: header + probe + 5 evaluations.
    let (status, csv) = request(addr, "GET", &format!("/sessions/{id}/csv"), None);
    assert_eq!(status, 200);
    assert_eq!(csv.trim_end().lines().count(), 7, "{csv}");
    assert!(csv.starts_with("run,"), "{csv}");

    // Metrics.
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let report: MetricsReport = serde_json::from_str(&body).expect("metrics");
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].evaluations, 5);
    assert_eq!(report.sessions[0].status, "finished");
    assert!(report.sessions[0].best_runtime.is_some());

    // Error surface.
    let (status, _) = request(addr, "GET", "/sessions/s-000099", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/sessions/bogus", None);
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/sessions", Some("{\"system\":\"nope\"}"));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/nowhere", None);
    assert_eq!(status, 404);

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn same_seed_same_recommendation_over_http() {
    let root = fresh_root("determinism");
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
    let addr = daemon.addr();

    let mut recommendations = Vec::new();
    for _ in 0..2 {
        let (status, body) = request(
            addr,
            "POST",
            "/sessions",
            Some(&spec_json("spark-agg", "ituned", 7, 8, false)),
        );
        assert_eq!(status, 201, "{body}");
        let created: CreateResponse = serde_json::from_str(&body).expect("created");
        let (status, _) = request(
            addr,
            "POST",
            &format!("/sessions/{}/advance", created.id),
            Some("{\"steps\":8}"),
        );
        assert_eq!(status, 200);
        let (_, body) = request(addr, "GET", &format!("/sessions/{}", created.id), None);
        let detail: SessionDetail = serde_json::from_str(&body).expect("detail");
        recommendations
            .push(serde_json::to_string(&detail.recommendation.expect("finished")).expect("json"));
    }
    assert_eq!(
        recommendations[0], recommendations[1],
        "same spec + same seed must yield the same recommendation"
    );

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn restart_recovers_sessions_from_disk() {
    let root = fresh_root("restart");
    let id = {
        let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
        let addr = daemon.addr();
        let (_, body) = request(
            addr,
            "POST",
            "/sessions",
            Some(&spec_json("hadoop-terasort", "random", 3, 6, false)),
        );
        let created: CreateResponse = serde_json::from_str(&body).expect("created");
        let (status, _) = request(
            addr,
            "POST",
            &format!("/sessions/{}/advance", created.id),
            Some("{\"steps\":2}"),
        );
        assert_eq!(status, 200);
        daemon.graceful_shutdown();
        created.id
    };

    // Second daemon on the same data dir: the session is back, resumes,
    // and finishes.
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("restart");
    let addr = daemon.addr();
    let (status, body) = request(addr, "GET", &format!("/sessions/{id}"), None);
    assert_eq!(status, 200, "{body}");
    let detail: SessionDetail = serde_json::from_str(&body).expect("detail");
    assert_eq!(detail.evaluations, 2);
    assert_eq!(detail.status, "running");

    let (status, body) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/advance"),
        Some("{\"steps\":99}"),
    );
    assert_eq!(status, 200);
    let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert_eq!((adv.ran, adv.evaluations), (4, 6));
    assert_eq!(adv.status, "finished");

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn warm_start_resolves_source_over_http() {
    let root = fresh_root("warm");
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
    let addr = daemon.addr();

    // Finish a cold session on the platform.
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 1, 4, false)),
    );
    let first: CreateResponse = serde_json::from_str(&body).expect("created");
    assert_eq!(first.warm_source, None);
    let (status, _) = request(
        addr,
        "POST",
        &format!("/sessions/{}/advance", first.id),
        Some("{\"steps\":4}"),
    );
    assert_eq!(status, 200);

    // A warm-started session maps to it.
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "ituned", 2, 4, true)),
    );
    let second: CreateResponse = serde_json::from_str(&body).expect("created");
    assert_eq!(second.warm_source, Some(first.id));
    let (_, body) = request(addr, "GET", &format!("/sessions/{}", second.id), None);
    let detail: SessionDetail = serde_json::from_str(&body).expect("detail");
    assert_eq!(detail.warm_source, Some(first.id));

    // But a warm request on a different platform finds no source.
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("spark-agg", "ituned", 3, 4, true)),
    );
    let third: CreateResponse = serde_json::from_str(&body).expect("created");
    assert_eq!(third.warm_source, None);

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn full_queue_returns_429() {
    // Concurrent advances on the SAME session coalesce (no queue slots),
    // so saturation needs distinct sessions: one shard, one worker, one
    // queue slot → the third session's driver has nowhere to go.
    let root = fresh_root("backpressure");
    let mut config = DaemonConfig::new(&root);
    config.workers = 1;
    config.queue_cap = 1;
    let daemon = Daemon::start("127.0.0.1:0", config).expect("start");
    let addr = daemon.addr();

    // A long-running GP session to occupy the single worker.
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "ituned", 5, 200, false)),
    );
    let slow: CreateResponse = serde_json::from_str(&body).expect("created");
    let slow_id = slow.id;
    // Two quick sessions for the queue slot and the rejection.
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 6, 3, false)),
    );
    let queued: CreateResponse = serde_json::from_str(&body).expect("created");
    let queued_id = queued.id;
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 7, 3, false)),
    );
    let rejected: CreateResponse = serde_json::from_str(&body).expect("created");
    let rejected_id = rejected.id;

    // Occupy the worker with the slow session's driver.
    let t1 = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            &format!("/sessions/{slow_id}/advance"),
            Some("{\"steps\":200}"),
        )
    });
    wait_until(
        addr,
        |m| m.sessions.iter().any(|s| s.evaluations >= 1),
        "worker busy",
    );

    // Fill the single queue slot with the second session's driver.
    let t2 = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            &format!("/sessions/{queued_id}/advance"),
            Some("{\"steps\":3}"),
        )
    });
    wait_until(addr, |m| m.queue_depth >= 1, "queue full");

    // Admission control: the third session's driver is rejected at once.
    let (status, body) = request(
        addr,
        "POST",
        &format!("/sessions/{rejected_id}/advance"),
        Some("{\"steps\":1}"),
    );
    assert_eq!(status, 429, "{body}");

    // Cancel ends the slow advance between steps; the queued session then
    // gets the worker and completes.
    let (status, _) = request(addr, "POST", &format!("/sessions/{slow_id}/cancel"), None);
    assert_eq!(status, 200);
    let (status, _) = t1.join().expect("t1");
    assert_eq!(status, 200, "in-flight advance completed its partial work");
    let (status, body) = t2.join().expect("t2");
    assert_eq!(status, 200, "{body}");
    let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert_eq!(adv.status, "finished");

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn concurrent_advances_on_one_session_coalesce() {
    // queue_cap = 1: if each request consumed a queue slot, the second
    // concurrent advance would 429. Coalescing makes both succeed, and
    // the watermark semantics cap the total at the budget.
    let root = fresh_root("coalesce");
    let mut config = DaemonConfig::new(&root);
    config.workers = 1;
    config.queue_cap = 1;
    let daemon = Daemon::start("127.0.0.1:0", config).expect("start");
    let addr = daemon.addr();

    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 11, 6, false)),
    );
    let created: CreateResponse = serde_json::from_str(&body).expect("created");
    let id = created.id;

    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                request(
                    addr,
                    "POST",
                    &format!("/sessions/{id}/advance"),
                    Some("{\"steps\":6}"),
                )
            })
        })
        .collect();
    let mut total_ran = 0;
    for t in threads {
        let (status, body) = t.join().expect("join");
        // Finishing the session is the natural end of the requested
        // operation, so even an advance that arrives after a racing
        // advance already finished it answers 200 (with `ran: 0`) —
        // never a 409, and certainly never the queue-full 429.
        assert_eq!(status, 200, "coalesced advance must succeed: {body}");
        let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
        assert_eq!(adv.evaluations, 6, "every waiter saw its watermark");
        assert_eq!(adv.status, "finished");
        total_ran += adv.ran;
    }
    assert!(
        (6..=6 * 4).contains(&total_ran),
        "ran counts are per-watch slices: {total_ran}"
    );

    // The session ran exactly its budget — no duplicate evaluations.
    let (_, body) = request(addr, "GET", &format!("/sessions/{id}"), None);
    let detail: SessionDetail = serde_json::from_str(&body).expect("detail");
    assert_eq!(detail.evaluations, 6);

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn one_step_advances_racing_driver_step_down_never_503() {
    // Many clients each advance one step at a time. A waiter that read the
    // evaluation count just before the driver ran the last step and
    // stepped down must re-read the session rather than report the stale
    // count: every advance that found budget left ran exactly one step,
    // and none is a spurious 503 `ran: 0`.
    let root = fresh_root("step-down-race");
    let mut config = DaemonConfig::new(&root);
    config.workers = 1;
    let daemon = Daemon::start("127.0.0.1:0", config).expect("start");
    let addr = daemon.addr();
    const BUDGET: usize = 600;
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 41, BUDGET, false)),
    );
    let created: CreateResponse = serde_json::from_str(&body).expect("created");
    let id = created.id;

    let clients: Vec<_> = (0..12)
        .map(|_| {
            std::thread::spawn(move || {
                let mut replies = Vec::new();
                loop {
                    let (status, body) = request(
                        addr,
                        "POST",
                        &format!("/sessions/{id}/advance"),
                        Some("{\"steps\":1}"),
                    );
                    let done = status != 200
                        || serde_json::from_str::<AdvanceResponse>(&body)
                            .map_or(true, |a| a.status == "finished");
                    replies.push((status, body));
                    if done {
                        return replies;
                    }
                }
            })
        })
        .collect();
    for client in clients {
        for (status, body) in client.join().expect("join") {
            assert_eq!(status, 200, "spurious advance failure: {body}");
            let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
            if adv.ran == 0 {
                assert_eq!(
                    (adv.status.as_str(), adv.evaluations),
                    ("finished", BUDGET),
                    "only an advance that found the budget spent runs nothing"
                );
            } else {
                assert_eq!(adv.ran, 1, "a one-step advance ran {}: {body}", adv.ran);
            }
        }
    }
    let (_, body) = request(addr, "GET", &format!("/sessions/{id}"), None);
    let detail: SessionDetail = serde_json::from_str(&body).expect("detail");
    assert_eq!(detail.evaluations, BUDGET);

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn advance_after_finish_is_deterministic_200_and_cancel_still_conflicts() {
    // Regression for the coalesced-advance race: a latecomer advance used
    // to 409 when another advance finished the session first, so the same
    // request answered 200 or 409 depending on thread interleaving. Both
    // the sequential shape (finish, then advance again) and the racing
    // shape must now answer 200 / ran: 0 / "finished"; only *cancelled*
    // sessions conflict.
    let root = fresh_root("adv-after-finish");
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
    let addr = daemon.addr();

    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 3, 4, false)),
    );
    let created: CreateResponse = serde_json::from_str(&body).expect("created");
    let id = created.id;

    // Exhaust the budget, sequentially: no race in sight.
    let (status, body) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/advance"),
        Some("{\"steps\":4}"),
    );
    assert_eq!(status, 200, "{body}");
    let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert_eq!(adv.status, "finished");
    assert_eq!(adv.evaluations, 4);

    // Advance after finish: idempotent observation of the final state.
    for _ in 0..2 {
        let (status, body) = request(
            addr,
            "POST",
            &format!("/sessions/{id}/advance"),
            Some("{\"steps\":2}"),
        );
        assert_eq!(status, 200, "{body}");
        let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
        assert_eq!(adv.ran, 0, "no budget left, nothing runs");
        assert_eq!(adv.evaluations, 4);
        assert_eq!(adv.status, "finished");
    }

    // Concurrent latecomers see the same answer as the sequential one.
    let racers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                request(
                    addr,
                    "POST",
                    &format!("/sessions/{id}/advance"),
                    Some("{\"steps\":1}"),
                )
            })
        })
        .collect();
    for t in racers {
        let (status, body) = t.join().expect("join");
        assert_eq!(status, 200, "{body}");
        let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
        assert_eq!((adv.ran, adv.evaluations), (0, 4), "{body}");
    }

    // Cancel after finish stays a conflict (and is reported as one) …
    let (status, body) = request(addr, "POST", &format!("/sessions/{id}/cancel"), None);
    assert_eq!(status, 409, "{body}");

    // … and advancing a *cancelled* session stays a conflict too.
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 5, 8, false)),
    );
    let other: CreateResponse = serde_json::from_str(&body).expect("created");
    let (status, _) = request(
        addr,
        "POST",
        &format!("/sessions/{}/cancel", other.id),
        None,
    );
    assert_eq!(status, 200);
    let (status, body) = request(
        addr,
        "POST",
        &format!("/sessions/{}/advance", other.id),
        Some("{\"steps\":1}"),
    );
    assert_eq!(status, 409, "cancelled sessions refuse advances: {body}");

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn same_seed_same_recommendation_across_worker_configs() {
    // The split-RNG scheme makes the worker count, group-commit batching,
    // and coalesced concurrent advances irrelevant to the outcome: the
    // same spec + seed must produce byte-identical recommendations under
    // radically different daemon shapes (one worker with direct appends
    // under flush, two workers with the group journal under fsync).
    let mut recommendations = Vec::new();
    for (tag, workers, durability) in [("cfg-a", 1, "flush"), ("cfg-b", 2, "fsync")] {
        let root = fresh_root(&format!("workercfg-{tag}"));
        let mut config = DaemonConfig::new(&root);
        config.durability = autotune_serve::wal::Durability::parse(durability).expect("mode");
        config.workers = workers;
        let daemon = Daemon::start("127.0.0.1:0", config).expect("start");
        let addr = daemon.addr();

        let (status, body) = request(
            addr,
            "POST",
            "/sessions",
            Some(&spec_json("spark-agg", "ituned", 7, 8, false)),
        );
        assert_eq!(status, 201, "{body}");
        let created: CreateResponse = serde_json::from_str(&body).expect("created");
        let id = created.id;

        // Drive to completion with concurrent, coalescing advances.
        let threads: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    request(
                        addr,
                        "POST",
                        &format!("/sessions/{id}/advance"),
                        Some("{\"steps\":8}"),
                    )
                })
            })
            .collect();
        for t in threads {
            let (status, body) = t.join().expect("join");
            // Advance-after-finish is a 200 with `ran: 0`, so every
            // interleaving of the racing advances answers identically.
            assert_eq!(status, 200, "{body}");
            let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
            assert_eq!(adv.status, "finished", "{body}");
        }

        let (_, body) = request(addr, "GET", &format!("/sessions/{id}"), None);
        let detail: SessionDetail = serde_json::from_str(&body).expect("detail");
        assert_eq!(detail.status, "finished");
        recommendations
            .push(serde_json::to_string(&detail.recommendation.expect("rec")).expect("json"));

        daemon.graceful_shutdown();
        let _ = fs::remove_dir_all(&root);
    }
    assert_eq!(
        recommendations[0], recommendations[1],
        "worker count, batching, and coalescing must not change the recommendation"
    );
}

#[test]
fn metrics_report_workers_endpoints_and_group_commit() {
    let root = fresh_root("metricsext");
    let mut config = DaemonConfig::new(&root);
    config.durability = autotune_serve::wal::Durability::Fsync;
    config.workers = 3;
    let daemon = Daemon::start("127.0.0.1:0", config).expect("start");
    let addr = daemon.addr();

    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 9, 2, false)),
    );
    let created: CreateResponse = serde_json::from_str(&body).expect("created");
    let (status, _) = request(
        addr,
        "POST",
        &format!("/sessions/{}/advance", created.id),
        Some("{\"steps\":2}"),
    );
    assert_eq!(status, 200);

    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let report: MetricsReport = serde_json::from_str(&body).expect("metrics");
    assert_eq!(report.workers, 3);
    assert_eq!(report.queue_depth, 0, "the only advance has returned");
    assert_eq!(report.durability, "fsync");
    let stats = report.group_commit.expect("group commit under fsync");
    assert!(stats.records >= 3, "probe + 2 evaluations journaled");
    assert!(stats.batches >= 1);
    let advance = report
        .endpoints
        .iter()
        .find(|e| e.endpoint == "advance")
        .expect("advance latency row");
    assert_eq!(advance.count, 1);
    assert!(advance.p99_ms >= advance.p50_ms);
    assert!(report.endpoints.iter().any(|e| e.endpoint == "create"));

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cancel_is_durable_before_acknowledgement() {
    // In fsync + group-commit mode the Cancelled record and its terminal
    // snapshot ride the journal; the 200 must not be sent before they are
    // durable. The deferred snapshot lands *before* the durability wait
    // releases, so by the time the client sees the 200 the cancelled
    // snapshot is already on disk.
    let root = fresh_root("cancel-durable");
    let mut config = DaemonConfig::new(&root);
    config.durability = autotune_serve::wal::Durability::Fsync;
    let daemon = Daemon::start("127.0.0.1:0", config).expect("start");
    let addr = daemon.addr();

    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 21, 10, false)),
    );
    let created: CreateResponse = serde_json::from_str(&body).expect("created");
    let id = created.id;
    let (status, _) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/advance"),
        Some("{\"steps\":2}"),
    );
    assert_eq!(status, 200);
    let (status, body) = request(addr, "POST", &format!("/sessions/{id}/cancel"), None);
    assert_eq!(status, 200, "{body}");
    let summary: SessionSummary = serde_json::from_str(&body).expect("summary");
    assert_eq!(summary.status, "cancelled");

    // The acknowledged cancellation is on disk *now* — no shutdown, no
    // flush, just what the 200 already promised. Group-mode sessions
    // write no WAL, so this reads the snapshot log alone.
    let recovered = autotune_serve::wal::recover(&root.join(id.to_string()))
        .expect("cancelled snapshot durable before the 200");
    assert!(recovered.corruption.is_none(), "{:?}", recovered.corruption);
    assert_eq!(
        recovered.status,
        autotune_serve::wal::SessionStatus::Cancelled
    );
    assert_eq!(recovered.observations.len(), 3, "probe + 2 evaluations");

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn startup_sets_aside_journal_tails_for_unknown_sessions() {
    // A journal record whose session directory is gone (meta.json lost to
    // a crash, or the directory evicted before the journal truncated) was
    // still acknowledged as durable: startup must not delete it. It is
    // set aside under an orphan name so the fresh journal starts clean.
    use autotune_core::SessionId;
    use autotune_serve::wal::{encode_journal_entry, WalRecord, JOURNAL_FILE};

    let root = fresh_root("orphan-journal");
    fs::create_dir_all(&root).expect("mkdir");
    let frame = encode_journal_entry(SessionId::new(99), &WalRecord::Cancelled).expect("frame");
    fs::write(root.join(JOURNAL_FILE), &frame).expect("write journal");

    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
    assert!(
        !root.join(JOURNAL_FILE).exists(),
        "consumed journal name is cleared for the new committer"
    );
    let orphan = root.join(format!("{JOURNAL_FILE}.orphan"));
    assert_eq!(
        fs::read(&orphan).expect("orphan retained"),
        frame,
        "unconsumed records are kept byte-for-byte"
    );
    daemon.graceful_shutdown();

    // A second crash with another unconsumed tail must not clobber the
    // first orphan.
    fs::write(root.join(JOURNAL_FILE), &frame).expect("write journal");
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("restart");
    assert!(orphan.exists());
    assert!(root.join(format!("{JOURNAL_FILE}.orphan-1")).exists());
    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn shutdown_drops_queued_driver_without_hanging_waiters() {
    // One worker, one shard: a slow session occupies the worker while a
    // second session's driver job sits in the queue. Shutdown drops the
    // queued job unrun — its waiter must get the documented 503 (and the
    // in-flight advance its partial 200), not spin on the driver flag
    // forever.
    let root = fresh_root("shutdown-queued");
    let mut config = DaemonConfig::new(&root);
    config.workers = 1;
    config.queue_cap = 4;
    let daemon = Daemon::start("127.0.0.1:0", config).expect("start");
    let addr = daemon.addr();

    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "ituned", 31, 200, false)),
    );
    let slow: CreateResponse = serde_json::from_str(&body).expect("created");
    let slow_id = slow.id;
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 32, 3, false)),
    );
    let queued: CreateResponse = serde_json::from_str(&body).expect("created");
    let queued_id = queued.id;

    let t1 = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            &format!("/sessions/{slow_id}/advance"),
            Some("{\"steps\":200}"),
        )
    });
    wait_until(
        addr,
        |m| m.sessions.iter().any(|s| s.evaluations >= 1),
        "worker busy",
    );
    let t2 = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            &format!("/sessions/{queued_id}/advance"),
            Some("{\"steps\":3}"),
        )
    });
    wait_until(addr, |m| m.queue_depth >= 1, "driver queued");

    daemon.graceful_shutdown();

    let (status, body) = t1.join().expect("t1");
    assert_eq!(
        status, 200,
        "in-flight advance reports partial work: {body}"
    );
    let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert!(adv.ran >= 1);
    let (status, body) = t2.join().expect("t2");
    assert_eq!(
        status, 503,
        "dropped queued driver must resolve its waiter, not hang it: {body}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn inspection_returns_during_a_long_advance() {
    // The advance driver re-locks its session right after every step; a
    // request waiting on that lock must get in at the next step boundary,
    // not after the whole advance.
    let root = fresh_root("inspect-during-advance");
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
    let addr = daemon.addr();
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "ituned", 41, 200, false)),
    );
    let id = serde_json::from_str::<CreateResponse>(&body)
        .expect("created")
        .id;
    let advance = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            &format!("/sessions/{id}/advance"),
            Some("{\"steps\":200}"),
        )
    });
    // Five reads once the session is past iTuned's initial design (at most
    // 20 points), where every step scores a GP and takes long enough for a
    // starved reader to show; each read must land while the advance runs.
    let mut reads = 0;
    while reads < 5 {
        let (status, body) = request(addr, "GET", &format!("/sessions/{id}"), None);
        assert_eq!(status, 200, "{body}");
        let detail: SessionDetail = serde_json::from_str(&body).expect("detail");
        assert!(
            !advance.is_finished() && detail.evaluations < 200,
            "GET /sessions/{id} waited for the whole advance ({} evaluations)",
            detail.evaluations
        );
        if detail.evaluations > 20 {
            reads += 1;
        }
    }
    // Shutdown stops the driver at its next step boundary; the advance
    // reports its partial progress.
    daemon.graceful_shutdown();
    let (status, body) = advance.join().expect("advance thread");
    assert_eq!(status, 200, "{body}");
    let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert!(adv.ran >= 1 && adv.evaluations < 200, "{body}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn advance_finishes_under_continuous_polling() {
    // The driver's yield to waiting requests is bounded per step: readers
    // that keep arriving (so the waiting count rarely drops to zero) must
    // not stall the advance.
    let root = fresh_root("advance-under-polling");
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
    let addr = daemon.addr();
    let (_, body) = request(
        addr,
        "POST",
        "/sessions",
        Some(&spec_json("dbms-oltp", "random", 43, 300, false)),
    );
    let id = serde_json::from_str::<CreateResponse>(&body)
        .expect("created")
        .id;
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pollers: Vec<_> = (0..3)
        .map(|k| {
            let done = std::sync::Arc::clone(&done);
            std::thread::spawn(move || {
                let path = if k == 0 {
                    "/metrics".to_string()
                } else {
                    format!("/sessions/{id}")
                };
                loop {
                    let (status, body) = request(addr, "GET", &path, None);
                    assert_eq!(status, 200, "{body}");
                    if done.load(std::sync::atomic::Ordering::SeqCst) {
                        break;
                    }
                }
            })
        })
        .collect();
    let (status, body) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/advance"),
        Some("{\"steps\":300}"),
    );
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    for poller in pollers {
        poller.join().expect("poller");
    }
    assert_eq!(status, 200, "{body}");
    let adv: AdvanceResponse = serde_json::from_str(&body).expect("advance");
    assert_eq!((adv.ran, adv.evaluations), (300, 300), "{body}");
    assert_eq!(adv.status, "finished", "{body}");
    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}

/// Polls `/metrics` until `pred` holds (30s cap — generous; every wait in
/// the test resolves in milliseconds normally).
fn wait_until(addr: SocketAddr, pred: impl Fn(&MetricsReport) -> bool, what: &str) {
    for _ in 0..3000 {
        let (status, body) = request(addr, "GET", "/metrics", None);
        assert_eq!(status, 200);
        let report: MetricsReport = serde_json::from_str(&body).expect("metrics");
        if pred(&report) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}

#[test]
fn metrics_expose_surrogate_sizes_and_fit_times() {
    let root = fresh_root("surrogate-metrics");
    let daemon = Daemon::start("127.0.0.1:0", DaemonConfig::new(&root)).expect("start");
    let addr = daemon.addr();

    // An iTuned session whose body still names the retired Nyström
    // backend, which is accepted and ignored. Budget exceeds the
    // init-sample phase so at least one GP fit happens.
    let body = "{\"system\":\"dbms-oltp\",\"tuner\":\"ituned\",\"seed\":5,\
                \"budget\":20,\"noise\":\"none\",\"warm_start\":false,\
                \"surrogate\":\"nystrom\"}";
    let (status, created) = request(addr, "POST", "/sessions", Some(body));
    assert_eq!(status, 201, "{created}");
    let created: CreateResponse = serde_json::from_str(&created).expect("created");
    let id = created.id;

    let (status, adv) = request(
        addr,
        "POST",
        &format!("/sessions/{id}/advance"),
        Some("{\"steps\":20}"),
    );
    assert_eq!(status, 200, "{adv}");

    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let report: MetricsReport = serde_json::from_str(&body).expect("metrics");
    let row = report
        .sessions
        .iter()
        .find(|s| s.id == id)
        .expect("session row");
    let stats = row.surrogate.as_ref().expect("surrogate stats after fits");
    assert!(stats.fits >= 1, "at least one full fit: {stats:?}");
    assert!(
        stats.lml_evals >= stats.fits,
        "each fit searched: {stats:?}"
    );
    assert!(stats.active >= 1, "{stats:?}");
    let fit = report
        .surrogate_fit
        .as_ref()
        .expect("fit-time histogram after fits");
    assert_eq!(fit.endpoint, "surrogate_fit");
    assert!(fit.count >= 1);
    assert!(fit.p99_ms >= fit.p50_ms);

    // A surrogate name that was never valid is rejected at create time.
    let bad = "{\"system\":\"dbms-oltp\",\"tuner\":\"ituned\",\"seed\":5,\
               \"budget\":5,\"noise\":\"none\",\"warm_start\":false,\
               \"surrogate\":\"krylov\"}";
    let (status, body) = request(addr, "POST", "/sessions", Some(bad));
    assert_eq!(status, 400, "{body}");

    daemon.graceful_shutdown();
    let _ = fs::remove_dir_all(&root);
}
