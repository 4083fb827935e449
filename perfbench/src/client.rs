//! The benchmark's single HTTP client.
//!
//! One request per connection (the daemon closes after each reply). The
//! client counts every operation it attempts and every one that fails —
//! any non-2xx status or transport error. Failed reads and creates are
//! retried so the workload's work still completes; they stay counted.
//! An advance is not idempotent, so [`Client::advance`] makes a single
//! attempt and leaves recovery to the caller (see `drive::drive`).

use autotune_core::SessionId;
use autotune_serve::server::{AdvanceResponse, CreateResponse, SessionDetail};
use serde::Deserialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Attempts per operation before the run is declared broken.
pub const MAX_ATTEMPTS: usize = 50;

/// Per-client operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Operations sent (retries included).
    pub attempted: u64,
    /// Operations answered non-2xx, or lost to a transport error.
    pub failed: u64,
}

/// A client of one daemon at a time.
#[derive(Default)]
pub struct Client {
    addr: Option<SocketAddr>,
    /// Running totals.
    pub counters: Counters,
}

/// One timed advance reply.
pub struct Advanced {
    /// The parsed reply.
    pub reply: AdvanceResponse,
    /// Round trip of the successful attempt, in milliseconds.
    pub rtt_ms: f64,
}

impl Client {
    /// Points the client at a daemon, keeping its counters.
    pub fn retarget(&mut self, addr: SocketAddr) {
        self.addr = Some(addr);
    }

    fn once(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(self.addr.expect("client pointed at a daemon"))?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let raw = String::from_utf8(raw).map_err(std::io::Error::other)?;
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("no status line"))?;
        let payload = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        Ok((status, payload))
    }

    /// One counted attempt. Returns the body and round trip of a 2xx
    /// reply, or what went wrong; anything else counts as failed.
    fn attempt(&mut self, method: &str, path: &str, body: &str) -> Result<(String, f64), String> {
        self.counters.attempted += 1;
        let t = Instant::now();
        let problem = match self.once(method, path, body) {
            Ok((status, payload)) if (200..300).contains(&status) => {
                return Ok((payload, t.elapsed().as_secs_f64() * 1e3));
            }
            Ok((status, payload)) => {
                if status == 429 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                format!("{status}: {}", payload.trim())
            }
            Err(e) => e.to_string(),
        };
        self.counters.failed += 1;
        Err(problem)
    }

    /// Sends until a 2xx arrives. Returns the body and the round trip of
    /// the successful attempt.
    fn call(&mut self, method: &str, path: &str, body: &str) -> (String, f64) {
        let mut last = String::new();
        for _ in 0..MAX_ATTEMPTS {
            match self.attempt(method, path, body) {
                Ok(reply) => return reply,
                Err(problem) => last = problem,
            }
        }
        panic!("{method} {path} failed {MAX_ATTEMPTS} times; last: {last}");
    }

    fn parse<T: Deserialize>(body: &str, what: &str) -> T {
        serde_json::from_str(body).unwrap_or_else(|e| panic!("{what} reply: {e}: {body}"))
    }

    /// `POST /sessions`.
    pub fn create(&mut self, spec_json: &str) -> CreateResponse {
        let (body, _) = self.call("POST", "/sessions", spec_json);
        Client::parse(&body, "create")
    }

    /// `POST /sessions/{id}/advance`, timed by the client: one attempt,
    /// `None` if it failed. The steps of a failed advance may still have
    /// run, so the caller re-reads the session instead of resending.
    pub fn advance(&mut self, id: SessionId, steps: usize) -> Option<Advanced> {
        let (body, rtt_ms) = self
            .attempt(
                "POST",
                &format!("/sessions/{id}/advance"),
                &format!("{{\"steps\":{steps}}}"),
            )
            .ok()?;
        Some(Advanced {
            reply: Client::parse(&body, "advance"),
            rtt_ms,
        })
    }

    /// `GET /sessions/{id}`.
    pub fn detail(&mut self, id: SessionId) -> SessionDetail {
        let (body, _) = self.call("GET", &format!("/sessions/{id}"), "");
        Client::parse(&body, "detail")
    }

    /// `GET /sessions/{id}/csv`: the session's full history as the daemon
    /// holds it in memory.
    pub fn csv(&mut self, id: SessionId) -> String {
        self.call("GET", &format!("/sessions/{id}/csv"), "").0
    }

    /// `GET /metrics`, raw.
    pub fn metrics(&mut self) -> String {
        self.call("GET", "/metrics", "").0
    }
}
