//! Process-level resource accounting from `/proc/self`.
//!
//! The daemon runs inside the benchmark process, so process CPU time and
//! written bytes cover the daemon, the client and nothing else. Written
//! bytes come from `wchar` in `/proc/self/io`. `wchar` counts `write(2)`
//! and its relatives, not `send(2)`, and `std::net::TcpStream` (the
//! client's and the daemon's HTTP) writes with `send(2)`: socket traffic
//! never enters `wchar`, so its growth is file bytes alone. A test pins
//! this; if sockets ever showed up there, the figure would need their
//! bytes taken out.

use std::path::Path;

/// One reading of the process's cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// User + system CPU time, in milliseconds.
    pub cpu_ms: f64,
    /// Bytes passed to `write`-family calls (`wchar`).
    pub wchar: u64,
}

/// Reads CPU time and `wchar` now.
pub fn sample() -> Sample {
    Sample {
        cpu_ms: cpu_ms(&read("/proc/self/stat")),
        wchar: io_field(&read("/proc/self/io"), "wchar"),
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Clock ticks per second of `/proc/<pid>/stat` time fields. Linux
/// reports them in USER_HZ, which is 100 on every mainstream platform.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU milliseconds from the text of `/proc/<pid>/stat`.
pub fn cpu_ms(stat: &str) -> f64 {
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted from the last ')'.
    let rest = &stat[stat.rfind(')').expect("stat comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm field: state is index 0, utime 11, stime 12.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 * 1000.0 / TICKS_PER_SEC
}

/// One `key: value` counter from the text of `/proc/<pid>/io`.
pub fn io_field(io: &str, key: &str) -> u64 {
    io.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {key} in /proc/self/io"))
}

/// Bytes written to files between two samples.
pub fn file_bytes_written(before: Sample, after: Sample) -> u64 {
    after.wchar - before.wchar
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = read("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read data dir").flatten() {
        let meta = entry.metadata().expect("stat data file");
        if meta.is_dir() {
            total += dir_bytes(&entry.path());
        } else {
            total += meta.len();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "4242 (perf bench) S 1 2 3 4 5 6 7 8 9 10 250 40 0 0 20 0 9 0";
        assert_eq!(cpu_ms(stat), 2900.0);
    }

    #[test]
    fn parses_io_counters() {
        let io = "rchar: 10\nwchar: 4096\nsyscr: 1\nsyscw: 2\n";
        assert_eq!(io_field(io, "wchar"), 4096);
        assert_eq!(io_field(io, "rchar"), 10);
    }

    #[test]
    fn socket_traffic_stays_out_of_wchar() {
        // Both ends of one connection in this thread, then one file write:
        // only the file's bytes reach this thread's `wchar` (other test
        // threads may write concurrently, hence the per-thread counter).
        let wchar = || io_field(&read("/proc/thread-self/io"), "wchar");
        let dir = std::env::temp_dir().join(format!("perfbench-wchar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let before = wchar();
        client.write_all(&[1u8; 100]).unwrap();
        let mut request = [0u8; 100];
        server.read_exact(&mut request).unwrap();
        server.write_all(&[7u8; 250]).unwrap();
        let mut reply = [0u8; 250];
        client.read_exact(&mut reply).unwrap();
        assert_eq!(wchar(), before, "socket bytes counted by wchar");
        std::fs::write(dir.join("f"), vec![0u8; 64 * 1024]).unwrap();
        let after = wchar();
        assert_eq!(
            file_bytes_written(
                Sample {
                    cpu_ms: 0.0,
                    wchar: before
                },
                Sample {
                    cpu_ms: 0.0,
                    wchar: after
                }
            ),
            64 * 1024
        );
        assert_eq!(dir_bytes(&dir), 64 * 1024);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
