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

/// Every flag the daemon takes; each expects a value.
const FLAGS: [&str; 7] = [
    "addr",
    "data-dir",
    "workers",
    "queue-cap",
    "snapshot-every",
    "durability",
    "retain",
];

/// The listen address and daemon settings named on the command line. An
/// unknown argument, a flag without a value or a malformed value is an
/// error: a daemon started on a misspelt or stale flag would run with
/// settings nobody asked for.
fn parse_args(args: &[String]) -> Result<(String, DaemonConfig), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|key| FLAGS.contains(key))
            .ok_or_else(|| format!("unknown argument '{arg}' (see --help)"))?;
        let value = rest
            .next()
            .ok_or_else(|| format!("--{key} expects a value"))?;
        flags.insert(key, value);
    }
    let num = |key: &str| -> Result<Option<usize>, String> {
        flags
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} expects a number, got '{v}'"))
            })
            .transpose()
    };
    let addr = flags.get("addr").unwrap_or(&"127.0.0.1:7071").to_string();
    let mut config = DaemonConfig::new(*flags.get("data-dir").unwrap_or(&"./autotune-serve-data"));
    if let Some(n) = num("workers")? {
        config.workers = n.max(1);
    }
    if let Some(n) = num("queue-cap")? {
        config.queue_cap = n.max(1);
    }
    if let Some(n) = num("snapshot-every")? {
        config.snapshot_every = n.max(1);
    }
    if let Some(mode) = flags.get("durability") {
        config.durability = Durability::parse(mode).map_err(|e| e.to_string())?;
    }
    config.retain_finished = num("retain")?;
    Ok((addr, config))
}

fn usage() {
    println!("autotune-serve — tuning-as-a-service daemon\n");
    println!("USAGE:");
    println!("  autotune-serve [--addr HOST:PORT] [--data-dir DIR]");
    println!("                 [--workers N] [--queue-cap N] [--snapshot-every N]");
    println!("                 [--durability flush|fsync] [--retain N]\n");
    println!("DEFAULTS:");
    println!("  --addr 127.0.0.1:7071   --data-dir ./autotune-serve-data");
    println!("  --workers (one per core) --queue-cap 32 (advance jobs waiting for a worker)");
    println!("  --snapshot-every {DEFAULT_SNAPSHOT_EVERY}");
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
    let (addr, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("autotune-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(String, DaemonConfig), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn every_flag_sets_its_value() {
        let (addr, config) = parse(
            "--addr 0.0.0.0:9 --data-dir /d --workers 3 --queue-cap 5 \
             --snapshot-every 7 --durability fsync --retain 4",
        )
        .unwrap();
        assert_eq!(addr, "0.0.0.0:9");
        assert_eq!(config.data_dir, std::path::PathBuf::from("/d"));
        assert_eq!((config.workers, config.queue_cap), (3, 5));
        assert_eq!(config.snapshot_every, 7);
        assert_eq!(config.durability, Durability::Fsync);
        assert_eq!(config.retain_finished, Some(4));
    }

    #[test]
    fn no_flags_keep_the_defaults() {
        let (addr, config) = parse("").unwrap();
        let defaults = DaemonConfig::new("./autotune-serve-data");
        assert_eq!(addr, "127.0.0.1:7071");
        assert_eq!(config.data_dir, defaults.data_dir);
        assert_eq!(config.workers, defaults.workers);
        assert_eq!(config.queue_cap, 32);
        assert_eq!(config.retain_finished, None);
    }

    #[test]
    fn unknown_flags_and_stray_words_are_refused() {
        let err = parse("--threads 2").unwrap_err();
        assert!(err.contains("'--threads'"), "{err}");
        assert!(parse("--workers 1 extra").is_err());
        assert!(parse("-w 1").is_err());
    }

    #[test]
    fn malformed_or_missing_values_are_refused() {
        let err = parse("--workers two").unwrap_err();
        assert_eq!(err, "--workers expects a number, got 'two'");
        assert!(parse("--queue-cap -1").is_err());
        assert!(parse("--retain all").is_err());
        assert!(parse("--durability sometimes").is_err());
        assert_eq!(parse("--workers").unwrap_err(), "--workers expects a value");
    }
}
