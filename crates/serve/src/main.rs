//! `autotune-serve` — the tuning-as-a-service daemon.
//!
//! ```sh
//! autotune-serve --addr 127.0.0.1:7071 --data-dir ./serve-data
//! curl -s -X POST localhost:7071/sessions -d \
//!   '{"system":"dbms-oltp","tuner":"ituned","seed":42,"budget":20,"noise":"realistic","warm_start":true}'
//! ```
//!
//! The process runs until SIGTERM/SIGINT or `POST /shutdown`, then drains
//! gracefully: in-flight evaluations finish, every session is snapshotted,
//! and a restart on the same `--data-dir` recovers all of them.

use autotune_serve::server::{Daemon, DaemonConfig};
use autotune_serve::signal;
use autotune_serve::wal::{Durability, DEFAULT_SNAPSHOT_EVERY};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(key.to_string(), value);
            i += 2;
        } else {
            i += 1;
        }
    }
    flags
}

fn usage() {
    println!("autotune-serve — tuning-as-a-service daemon\n");
    println!("USAGE:");
    println!("  autotune-serve [--addr HOST:PORT] [--data-dir DIR]");
    println!("                 [--workers N] [--queue-cap N] [--snapshot-every N]");
    println!("                 [--shards N] [--durability flush|fsync] [--retain N]\n");
    println!("DEFAULTS:");
    println!("  --addr 127.0.0.1:7071   --data-dir ./autotune-serve-data");
    println!("  --workers 2 (per shard) --queue-cap 8 (per shard)");
    println!("  --snapshot-every {DEFAULT_SNAPSHOT_EVERY}      --shards 4");
    println!("  --durability flush (survives process crash; fsync survives OS crash,");
    println!("                      batching fsyncs through a group-commit journal)");
    println!("  --retain unlimited (N caps finished-session dirs, oldest evicted)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    let flags = parse_flags(&args);
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7071".to_string());
    let data_dir = flags
        .get("data-dir")
        .cloned()
        .unwrap_or_else(|| "./autotune-serve-data".to_string());
    let parse_num = |key: &str, default: usize| {
        flags
            .get(key)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let mut config = DaemonConfig::new(data_dir);
    config.workers = parse_num("workers", config.workers).max(1);
    config.queue_cap = parse_num("queue-cap", config.queue_cap).max(1);
    config.snapshot_every = parse_num("snapshot-every", config.snapshot_every).max(1);
    config.shards = parse_num("shards", config.shards).max(1);
    if let Some(mode) = flags.get("durability") {
        config.durability = match Durability::parse(mode) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("autotune-serve: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    if let Some(retain) = flags.get("retain") {
        match retain.parse() {
            Ok(n) => config.retain_finished = Some(n),
            Err(_) => {
                eprintln!("autotune-serve: --retain expects a number, got '{retain}'");
                return ExitCode::FAILURE;
            }
        }
    }

    signal::install();
    let daemon = match Daemon::start(&addr, config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("autotune-serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The smoke script parses this line to learn the resolved port.
    println!("listening on http://{}", daemon.addr());

    loop {
        std::thread::sleep(Duration::from_millis(50));
        if signal::requested() || daemon.shutdown_requested() {
            break;
        }
    }
    eprintln!("autotune-serve: draining sessions…");
    daemon.graceful_shutdown();
    println!("shutdown complete");
    ExitCode::SUCCESS
}
