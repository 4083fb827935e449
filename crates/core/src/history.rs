//! Observation history: everything a tuner has seen so far, with the
//! encodings and summaries the model-based tuners need.

use crate::objective::Observation;
use crate::space::{ConfigSpace, Configuration};
use autotune_math::Matrix;
use serde::{Deserialize, Serialize};

/// Append-only log of observations made during a tuning session.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct History {
    observations: Vec<Observation>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// History rebuilt from a recorded observation log (oldest first) —
    /// the write-ahead-log replay path of persistent session stores.
    pub fn from_observations(observations: Vec<Observation>) -> Self {
        History { observations }
    }

    /// Consumes the history, yielding the raw observation log.
    pub fn into_observations(self) -> Vec<Observation> {
        self.observations
    }

    /// Appends an observation.
    pub fn push(&mut self, obs: Observation) {
        self.observations.push(obs);
    }

    /// All observations, oldest first.
    pub fn all(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The best (lowest-runtime, non-failed) observation, if any; falls
    /// back to the best failed one when everything failed.
    pub fn best(&self) -> Option<&Observation> {
        let ok_best = self
            .observations
            .iter()
            .filter(|o| !o.failed)
            .min_by(|a, b| a.runtime_secs.total_cmp(&b.runtime_secs));
        ok_best.or_else(|| {
            self.observations
                .iter()
                .min_by(|a, b| a.runtime_secs.total_cmp(&b.runtime_secs))
        })
    }

    /// Best runtime value (∞ when empty).
    pub fn best_runtime(&self) -> f64 {
        self.best().map(|o| o.runtime_secs).unwrap_or(f64::INFINITY)
    }

    /// Runtime of every observation, in order.
    pub fn runtimes(&self) -> Vec<f64> {
        self.observations.iter().map(|o| o.runtime_secs).collect()
    }

    /// Best-so-far runtime after each observation (a convergence curve).
    pub fn best_so_far(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.observations
            .iter()
            .map(|o| {
                if !o.failed {
                    best = best.min(o.runtime_secs);
                }
                best
            })
            .collect()
    }

    /// Encodes all configurations into a design matrix (`n x dim`).
    pub fn design_matrix(&self, space: &ConfigSpace) -> Matrix {
        let rows: Vec<Vec<f64>> = self
            .observations
            .iter()
            .map(|o| space.encode(&o.config))
            .collect();
        if rows.is_empty() {
            Matrix::zeros(0, space.dim())
        } else {
            Matrix::from_rows(&rows)
        }
    }

    /// Encoded points paired with runtimes — the GP training set.
    pub fn training_set(&self, space: &ConfigSpace) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs = self
            .observations
            .iter()
            .map(|o| space.encode(&o.config))
            .collect();
        (xs, self.runtimes())
    }

    /// The first observation of an (exactly equal) configuration, if it
    /// was already evaluated — the dedup rule of every session loop.
    pub fn find_config(&self, config: &Configuration) -> Option<&Observation> {
        self.observations.iter().find(|o| &o.config == config)
    }

    /// Union of metric names seen in any observation, sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .observations
            .iter()
            .flat_map(|o| o.metrics.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Matrix of metric values (`n x metrics`), with 0.0 for metrics a run
    /// did not report. Column order matches [`Self::metric_names`].
    pub fn metric_matrix(&self) -> (Vec<String>, Matrix) {
        let names = self.metric_names();
        let rows: Vec<Vec<f64>> = self
            .observations
            .iter()
            .map(|o| {
                names
                    .iter()
                    .map(|n| o.metrics.get(n).copied().unwrap_or(0.0))
                    .collect()
            })
            .collect();
        let m = if rows.is_empty() {
            Matrix::zeros(0, names.len())
        } else {
            Matrix::from_rows(&rows)
        };
        (names, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Observation;
    use crate::param::ParamSpec;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![ParamSpec::float("x", 0.0, 1.0, 0.5, "")])
    }

    fn obs(space: &ConfigSpace, x: f64, rt: f64) -> Observation {
        let cfg = space.decode(&[x]);
        Observation::ok(cfg, rt)
    }

    #[test]
    fn best_tracks_minimum() {
        let s = space();
        let mut h = History::new();
        h.push(obs(&s, 0.1, 10.0));
        h.push(obs(&s, 0.2, 5.0));
        h.push(obs(&s, 0.3, 7.0));
        assert_eq!(h.best().unwrap().runtime_secs, 5.0);
        assert_eq!(h.best_so_far(), vec![10.0, 5.0, 5.0]);
    }

    #[test]
    fn failed_runs_excluded_from_best_unless_all_failed() {
        let s = space();
        let mut h = History::new();
        let mut bad = obs(&s, 0.1, 1.0);
        bad.failed = true;
        h.push(bad);
        h.push(obs(&s, 0.2, 9.0));
        assert_eq!(h.best().unwrap().runtime_secs, 9.0);

        let mut h2 = History::new();
        let mut bad2 = obs(&s, 0.5, 3.0);
        bad2.failed = true;
        h2.push(bad2);
        assert_eq!(h2.best().unwrap().runtime_secs, 3.0);
    }

    #[test]
    fn training_set_shapes() {
        let s = space();
        let mut h = History::new();
        h.push(obs(&s, 0.25, 4.0));
        h.push(obs(&s, 0.75, 2.0));
        let (xs, ys) = h.training_set(&s);
        assert_eq!(xs.len(), 2);
        assert_eq!(ys, vec![4.0, 2.0]);
        let m = h.design_matrix(&s);
        assert_eq!(m.shape(), (2, 1));
    }

    #[test]
    fn metric_matrix_aligns_columns() {
        let s = space();
        let mut h = History::new();
        let mut o1 = obs(&s, 0.1, 1.0);
        o1.metrics.insert("hit_ratio".into(), 0.9);
        o1.metrics.insert("spills".into(), 2.0);
        let mut o2 = obs(&s, 0.2, 2.0);
        o2.metrics.insert("hit_ratio".into(), 0.5);
        h.push(o1);
        h.push(o2);
        let (names, m) = h.metric_matrix();
        assert_eq!(names, vec!["hit_ratio".to_string(), "spills".to_string()]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 1)], 0.0, "missing metric defaults to 0");
    }

    #[test]
    fn empty_history() {
        let h = History::new();
        assert!(h.best().is_none());
        assert_eq!(h.best_runtime(), f64::INFINITY);
        assert!(h.best_so_far().is_empty());
    }

    #[test]
    fn find_config_detects_duplicates() {
        let s = space();
        let mut h = History::new();
        h.push(obs(&s, 0.5, 1.0));
        h.push(obs(&s, 0.5, 2.0));
        let hit = h.find_config(&s.decode(&[0.5])).expect("duplicate found");
        assert_eq!(hit.runtime_secs, 1.0, "first measurement wins");
        assert!(h.find_config(&s.decode(&[0.9])).is_none());
    }
}
