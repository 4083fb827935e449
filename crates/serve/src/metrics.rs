//! The `/metrics` report: a typed JSON snapshot of daemon health.
//!
//! Deliberately a plain serializable struct rather than a Prometheus text
//! format — the workspace has no external deps, and a JSON report is
//! directly consumable by the CI smoke test and the bench replay tool.
//!
//! Latency is tracked with lock-free log₂-bucketed histograms: request
//! handlers record a microsecond duration with one atomic increment, and
//! the report derives p50/p95/p99 from bucket upper bounds. Quantiles are
//! therefore conservative (rounded up to the next power of two), which is
//! the right bias for an overload signal.

use crate::group::GroupCommitStats;
use autotune_core::{SessionId, SurrogateStats};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-session counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionMetrics {
    /// Which session.
    pub id: SessionId,
    /// Lifecycle state label (`running`/`finished`/`cancelled`).
    pub status: String,
    /// Tuner-driven evaluations completed.
    pub evaluations: usize,
    /// Best successful runtime observed, if any run succeeded (failed
    /// penalty runtimes never appear here).
    pub best_runtime: Option<f64>,
    /// Current WAL size in bytes (drops to 0 after each compaction).
    pub wal_bytes: u64,
    /// GP surrogate snapshot (training-set size, lifetime fit and
    /// LML-evaluation counts); absent for tuners without a surrogate or
    /// before the first model fit.
    pub surrogate: Option<SurrogateStats>,
    /// Current drift epoch (0 until the first detected drift; always 0
    /// for sessions with detection off).
    pub drift_epoch: u32,
    /// Drift events detected over the session's lifetime.
    pub drifts: usize,
}

/// Latency summary of one endpoint family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndpointLatency {
    /// Endpoint label (`advance`, `create`, …).
    pub endpoint: String,
    /// Requests served since startup.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency (bucket upper bound), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency (bucket upper bound), milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency (bucket upper bound), milliseconds.
    pub p99_ms: f64,
}

/// The full `/metrics` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsReport {
    /// One entry per session, ascending id.
    pub sessions: Vec<SessionMetrics>,
    /// Jobs waiting in the scheduler queue right now.
    pub queue_depth: usize,
    /// Worker threads serving session jobs.
    pub workers: usize,
    /// Sum of all sessions' WAL bytes.
    pub wal_bytes_total: u64,
    /// WAL durability mode label (`flush`/`fsync`).
    pub durability: String,
    /// Per-endpoint latency summaries (endpoints served at least once).
    pub endpoints: Vec<EndpointLatency>,
    /// Group-commit batch counters; absent when group commit is disabled.
    pub group_commit: Option<GroupCommitStats>,
    /// Latency summary of advance steps that performed a full surrogate
    /// hyper-parameter fit (labelled `surrogate_fit`); absent until the
    /// first such fit.
    pub surrogate_fit: Option<EndpointLatency>,
    /// Drift events detected across all live sessions.
    pub drifts_total: usize,
}

/// Endpoint families tracked by the latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /sessions`
    Create,
    /// `GET /sessions` and `GET /sessions/{id}`
    Inspect,
    /// `POST /sessions/{id}/advance`
    Advance,
    /// `POST /sessions/{id}/cancel`
    Cancel,
    /// `GET /sessions/{id}/csv`
    Csv,
    /// `GET /metrics`
    Metrics,
    /// Everything else (healthz, shutdown, 404s).
    Other,
}

/// Every endpoint family, in report order.
pub const ENDPOINTS: [Endpoint; 7] = [
    Endpoint::Create,
    Endpoint::Inspect,
    Endpoint::Advance,
    Endpoint::Cancel,
    Endpoint::Csv,
    Endpoint::Metrics,
    Endpoint::Other,
];

impl Endpoint {
    /// Label used in the `/metrics` report.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Create => "create",
            Endpoint::Inspect => "inspect",
            Endpoint::Advance => "advance",
            Endpoint::Cancel => "cancel",
            Endpoint::Csv => "csv",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }
}

/// Number of log₂ buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 holds 0–1µs), so the top
/// bucket covers ~9 hours — effectively unbounded for an HTTP handler.
const BUCKETS: usize = 45;

/// A lock-free log₂-bucketed latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one duration in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket the
    /// quantile sample falls in, in microseconds. 0 when empty.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // ceil(q * total) with f64 guard against q*total == total + ε.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i: 2^i µs (bucket 0 → 1µs).
                return 1u64 << i.min(63);
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Condenses the histogram into a report row; `None` when no request
    /// of this family has been served.
    pub fn summary(&self, endpoint: Endpoint) -> Option<EndpointLatency> {
        self.summary_labeled(endpoint.label())
    }

    /// [`Self::summary`] under an arbitrary label — for histograms that
    /// track something other than an endpoint (surrogate fit times).
    pub fn summary_labeled(&self, label: &str) -> Option<EndpointLatency> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let to_ms = |micros: u64| micros as f64 / 1000.0;
        Some(EndpointLatency {
            endpoint: label.to_string(),
            count,
            mean_ms: to_ms(self.sum_micros.load(Ordering::Relaxed)) / count as f64,
            p50_ms: to_ms(self.quantile_micros(0.50)),
            p95_ms: to_ms(self.quantile_micros(0.95)),
            p99_ms: to_ms(self.quantile_micros(0.99)),
        })
    }
}

/// One histogram per endpoint family.
#[derive(Debug, Default)]
pub struct EndpointHistograms {
    histograms: [LatencyHistogram; ENDPOINTS.len()],
}

impl EndpointHistograms {
    fn index(endpoint: Endpoint) -> usize {
        ENDPOINTS
            .iter()
            .position(|e| *e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1)
    }

    /// Records one request's duration.
    pub fn record(&self, endpoint: Endpoint, micros: u64) {
        self.histograms[Self::index(endpoint)].record_micros(micros);
    }

    /// Report rows for every endpoint that served at least one request.
    pub fn report(&self) -> Vec<EndpointLatency> {
        ENDPOINTS
            .iter()
            .zip(self.histograms.iter())
            .filter_map(|(e, h)| h.summary(*e))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_and_none_runtime_is_null() {
        let report = MetricsReport {
            sessions: vec![SessionMetrics {
                id: SessionId::new(1),
                status: "running".into(),
                evaluations: 3,
                best_runtime: None,
                wal_bytes: 120,
                surrogate: Some(SurrogateStats {
                    active: 64,
                    fits: 4,
                    lml_evals: 200,
                }),
                drift_epoch: 1,
                drifts: 1,
            }],
            queue_depth: 0,
            workers: 2,
            wal_bytes_total: 120,
            durability: "flush".into(),
            endpoints: Vec::new(),
            group_commit: None,
            surrogate_fit: None,
            drifts_total: 1,
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"best_runtime\":null"), "{json}");
        assert!(json.contains("\"group_commit\":null"), "{json}");
        assert!(json.contains("\"active\":64"), "{json}");
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sessions[0].evaluations, 3);
        assert_eq!(back.sessions[0].best_runtime, None);
        assert_eq!(
            back.sessions[0].surrogate.as_ref().map(|s| s.active),
            Some(64)
        );
        assert_eq!(back.workers, 2);
        assert!(back.surrogate_fit.is_none());
    }

    #[test]
    fn labeled_summary_reports_fit_histogram() {
        let h = LatencyHistogram::default();
        assert!(h.summary_labeled("surrogate_fit").is_none());
        h.record_micros(4_000);
        h.record_micros(9_000);
        let row = h.summary_labeled("surrogate_fit").expect("two samples");
        assert_eq!(row.endpoint, "surrogate_fit");
        assert_eq!(row.count, 2);
        assert!(row.mean_ms > 4.0 && row.mean_ms < 10.0);
    }

    #[test]
    fn histogram_quantiles_use_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_micros(0.5), 0, "empty histogram");
        // 99 fast requests (~100µs) and one slow outlier (~1s).
        for _ in 0..99 {
            h.record_micros(100);
        }
        h.record_micros(1_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_micros(0.50), 128, "100µs rounds up to 2^7");
        assert_eq!(h.quantile_micros(0.95), 128);
        assert_eq!(h.quantile_micros(0.99), 128, "99th sample is still fast");
        assert_eq!(h.quantile_micros(1.0), 1 << 20, "max catches the outlier");
    }

    #[test]
    fn endpoint_histograms_report_only_served_families() {
        let h = EndpointHistograms::default();
        h.record(Endpoint::Advance, 2_000);
        h.record(Endpoint::Advance, 3_000);
        h.record(Endpoint::Metrics, 50);
        let rows = h.report();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].endpoint, "advance");
        assert_eq!(rows[0].count, 2);
        assert!(rows[0].mean_ms > 1.0 && rows[0].mean_ms < 4.0);
        assert!(rows[0].p99_ms >= rows[0].p50_ms);
        assert_eq!(rows[1].endpoint, "metrics");
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        let h = LatencyHistogram::default();
        h.record_micros(0);
        assert_eq!(h.quantile_micros(0.99), 1);
    }
}
