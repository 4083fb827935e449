//! Online workload-drift detection over a session's metric stream.
//!
//! A long-running tuning session assumes the workload it probed at
//! creation is the workload it is still tuning. When the workload shifts
//! (the OLTP morning becomes the OLAP batch window), the tuner's model —
//! and the warm-start source matched against the original probe — go
//! stale. This module watches the session's *canary* observations and
//! raises a drift signal when the stream moves away from the epoch's
//! reference signature.
//!
//! **Statistic.** Each epoch starts with a baseline probe of the vendor
//! default configuration; its metric vector is the epoch's *reference*.
//! Every `probe_every` evaluations the session re-runs that same default
//! configuration (a canary) and feeds only those observations here: with
//! the configuration held fixed, any signature movement is workload
//! movement — feeding trial configurations instead would conflate
//! config-induced and workload-induced change (trial configs sit at
//! wildly varying, heavy-tailed distances from the reference). Each
//! canary vector is aligned to the reference's metric names, normalized
//! per dimension by the reference magnitude, and reduced to one number:
//! the RMS distance to the reference over the full metric vector (at most
//! 26 metrics on any built-in platform, so no compression step). The
//! first [`min_obs`](DriftDetector) distances calibrate a baseline mean;
//! drift is a sustained *increase* over that baseline.
//!
//! **Detectors.** Two classic sequential change detectors over the
//! distance stream, selectable per session:
//!
//! * **Page–Hinkley**: cumulative sum of `(d_t − d̄ − δ)` with a running
//!   minimum; alarm when the sum rises more than `threshold` above its
//!   minimum.
//! * **CUSUM** (one-sided): `s_t = max(0, s_{t−1} + d_t − d̄ − δ)`; alarm
//!   when `s_t > threshold`.
//!
//! Both are pure functions of the observation stream and the reset
//! points, so recovery replays them deterministically — no detector state
//! is persisted beyond the drift events themselves (see
//! [`crate::wal::WalRecord::Drift`]).

use autotune_core::Metrics;
use serde::{Deserialize, Serialize};

/// Which sequential change detector a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Page–Hinkley test (cumulative deviation above its running min).
    PageHinkley,
    /// One-sided CUSUM.
    Cusum,
}

impl DetectorKind {
    /// Parses the spec vocabulary (`ph` | `cusum`); `off` is represented
    /// by the absence of a detector, not a kind.
    pub fn parse(s: &str) -> Option<DetectorKind> {
        match s {
            "ph" | "page-hinkley" => Some(DetectorKind::PageHinkley),
            "cusum" => Some(DetectorKind::Cusum),
            _ => None,
        }
    }

    /// Lowercase label used in JSON status fields.
    pub fn label(self) -> &'static str {
        match self {
            DetectorKind::PageHinkley => "ph",
            DetectorKind::Cusum => "cusum",
        }
    }
}

/// One detected drift, as recorded in the WAL and replayed by recovery.
///
/// `at_seq` is the observation index of the **re-probe** the drift
/// triggered: recovery applies the tuner reset immediately before
/// replaying that observation, restoring the exact live state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftEvent {
    /// Observation index of the epoch's re-probe (the first observation
    /// of the new epoch).
    pub at_seq: u64,
    /// The epoch the re-probe opens (epoch 0 is the pre-drift session).
    pub epoch: u32,
    /// Detector statistic at the moment it crossed the threshold.
    pub stat: f64,
    /// Warm-start source re-matched against the re-probe signature, if
    /// any — recorded so recovery rebuilds the very same tuner without
    /// consulting the (mutable) signature index.
    pub warm_source: Option<autotune_core::SessionId>,
}

/// The per-session online drift detector.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    kind: DetectorKind,
    /// Alarm threshold on the detector statistic.
    threshold: f64,
    /// Drift magnitude the detector is insensitive to (slack term δ).
    delta: f64,
    /// Observations per epoch used to calibrate the baseline distance
    /// before the detector arms itself.
    min_obs: usize,
    // Epoch state, rebuilt by `reset`.
    names: Vec<String>,
    reference: Vec<f64>,
    scales: Vec<f64>,
    fed: usize,
    baseline_mean: f64,
    cum: f64,
    min_cum: f64,
    s: f64,
}

impl DriftDetector {
    /// Creates an unarmed detector; call [`Self::reset`] with the epoch's
    /// baseline probe before feeding observations.
    pub fn new(kind: DetectorKind, threshold: f64, delta: f64, min_obs: usize) -> Self {
        DriftDetector {
            kind,
            threshold,
            delta,
            min_obs: min_obs.max(1),
            names: Vec::new(),
            reference: Vec::new(),
            scales: Vec::new(),
            fed: 0,
            baseline_mean: 0.0,
            cum: 0.0,
            min_cum: 0.0,
            s: 0.0,
        }
    }

    /// Starts a new epoch: the probe's metric vector becomes the
    /// reference signature and all detector state is cleared.
    pub fn reset(&mut self, probe: &Metrics) {
        self.names = probe.keys().cloned().collect();
        self.reference = probe.values().copied().collect();
        self.scales = self.reference.iter().map(|r| r.abs().max(1e-9)).collect();
        self.fed = 0;
        self.baseline_mean = 0.0;
        self.cum = 0.0;
        self.min_cum = 0.0;
        self.s = 0.0;
    }

    /// Normalized RMS distance of one metric vector to the epoch
    /// reference.
    pub fn distance(&self, metrics: &Metrics) -> f64 {
        if self.names.is_empty() {
            return 0.0;
        }
        let sum_sq: f64 = self
            .names
            .iter()
            .zip(self.reference.iter().zip(&self.scales))
            .map(|(n, (r, sc))| (metrics.get(n).copied().unwrap_or(0.0) - r) / sc)
            .map(|x| x * x)
            .sum();
        (sum_sq / self.names.len() as f64).sqrt()
    }

    /// Feeds one observation's metrics; returns the detector statistic
    /// when it crossed the threshold (drift detected). Observations with
    /// no metrics are ignored — there is nothing to compare.
    pub fn feed(&mut self, metrics: &Metrics) -> Option<f64> {
        if metrics.is_empty() || self.names.is_empty() {
            return None;
        }
        let d = self.distance(metrics);
        self.fed += 1;
        if self.fed <= self.min_obs {
            // Calibration: trial configs sit at some natural distance from
            // the reference; learn it before arming.
            self.baseline_mean += (d - self.baseline_mean) / self.fed as f64;
            return None;
        }
        let dev = d - self.baseline_mean - self.delta;
        match self.kind {
            DetectorKind::PageHinkley => {
                self.cum += dev;
                self.min_cum = self.min_cum.min(self.cum);
                let stat = self.cum - self.min_cum;
                (stat > self.threshold).then_some(stat)
            }
            DetectorKind::Cusum => {
                self.s = (self.s + dev).max(0.0);
                (self.s > self.threshold).then_some(self.s)
            }
        }
    }

    /// The detector kind this session runs.
    pub fn kind(&self) -> DetectorKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn metrics(pairs: &[(&str, f64)]) -> Metrics {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn reference() -> Metrics {
        metrics(&[("hit_ratio", 0.9), ("spill_mb", 100.0), ("gc_secs", 4.0)])
    }

    /// A stationary stream: small wiggles around the reference.
    fn stationary(i: u64) -> Metrics {
        let w = (i as f64 * 0.7).sin() * 0.05;
        metrics(&[
            ("hit_ratio", 0.9 + w * 0.1),
            ("spill_mb", 100.0 + w * 10.0),
            ("gc_secs", 4.0 + w),
        ])
    }

    /// A shifted stream: a different workload's internals.
    fn shifted() -> Metrics {
        metrics(&[("hit_ratio", 0.2), ("spill_mb", 900.0), ("gc_secs", 25.0)])
    }

    #[test]
    fn stationary_streams_never_alarm() {
        for kind in [DetectorKind::PageHinkley, DetectorKind::Cusum] {
            let mut det = DriftDetector::new(kind, 1.0, 0.1, 3);
            det.reset(&reference());
            for i in 0..200 {
                assert_eq!(det.feed(&stationary(i)), None, "{kind:?} false alarm");
            }
        }
    }

    #[test]
    fn shifts_are_detected_quickly_by_both_detectors() {
        for kind in [DetectorKind::PageHinkley, DetectorKind::Cusum] {
            let mut det = DriftDetector::new(kind, 1.0, 0.1, 3);
            det.reset(&reference());
            for i in 0..10 {
                assert_eq!(det.feed(&stationary(i)), None);
            }
            let mut fired_at = None;
            for i in 0..5 {
                if det.feed(&shifted()).is_some() {
                    fired_at = Some(i);
                    break;
                }
            }
            assert!(
                fired_at.is_some() && fired_at.unwrap_or(9) <= 2,
                "{kind:?} too slow: {fired_at:?}"
            );
        }
    }

    #[test]
    fn reset_rearms_after_drift() {
        let mut det = DriftDetector::new(DetectorKind::PageHinkley, 1.0, 0.1, 2);
        det.reset(&reference());
        for i in 0..5 {
            det.feed(&stationary(i));
        }
        let mut fired = false;
        for _ in 0..5 {
            if det.feed(&shifted()).is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired);
        // New epoch referenced on the shifted workload: the shifted stream
        // is now stationary and must not alarm.
        det.reset(&shifted());
        for _ in 0..50 {
            assert_eq!(det.feed(&shifted()), None);
        }
    }

    #[test]
    fn detection_is_deterministic() {
        let run = || {
            let mut det = DriftDetector::new(DetectorKind::Cusum, 0.8, 0.05, 2);
            det.reset(&reference());
            let mut trace = Vec::new();
            for i in 0..8 {
                trace.push(det.feed(&stationary(i)));
            }
            for _ in 0..4 {
                trace.push(det.feed(&shifted()));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_metrics_are_ignored() {
        let mut det = DriftDetector::new(DetectorKind::Cusum, 1.0, 0.1, 1);
        det.reset(&reference());
        assert_eq!(det.feed(&BTreeMap::new()), None);
        assert_eq!(det.distance(&reference()), 0.0);
    }

    #[test]
    fn kind_vocabulary() {
        assert_eq!(DetectorKind::parse("ph"), Some(DetectorKind::PageHinkley));
        assert_eq!(
            DetectorKind::parse("page-hinkley"),
            Some(DetectorKind::PageHinkley)
        );
        assert_eq!(DetectorKind::parse("cusum"), Some(DetectorKind::Cusum));
        assert_eq!(DetectorKind::parse("off"), None);
        assert_eq!(DetectorKind::PageHinkley.label(), "ph");
        assert_eq!(DetectorKind::Cusum.label(), "cusum");
    }
}
