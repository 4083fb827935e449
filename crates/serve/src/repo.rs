//! The persistent session repository: directory layout, metadata, and the
//! OtterTune-style workload-mapping index used for warm-start transfer.
//!
//! Each session lives in `<root>/s-NNNNNN/` (see [`crate::wal`] for the
//! files inside). Durable state is stateless-on-disk — the filesystem
//! *is* the database, which keeps crash recovery trivial — but the
//! repository additionally keeps a process-local *signature cache* so
//! warm-start queries stop re-reading every session directory:
//!
//! * a session id becomes **settled** once it has been observed in a
//!   terminal state (finished or cancelled). Settled ids are never probed
//!   again; running or half-created sessions are re-probed on each query
//!   until they settle.
//! * settled *finished* sessions with a non-empty baseline probe enter
//!   their platform's signature list, from which a `PlatformIndex`
//!   (the normalized vectors, ready to scan) is built lazily and rebuilt
//!   only when the list changes.
//! * [`SessionRepository::delete_session`] (the retention/GC path) and a
//!   defensive sweep against `list_ids` invalidate cache entries whose
//!   directories are gone, so an evicted session can never be returned as
//!   a warm-start source.
//!
//! All disk IO happens *outside* the cache lock; the lock only guards the
//! in-memory maps. Clones of a repository share one cache.
//!
//! **Workload mapping.** A session's *signature* is the metric vector of
//! its baseline probe (observation 0, the vendor-default configuration):
//! two workloads that stress a system the same way under identical knobs
//! report similar internals (hit ratios, spill counts, GC time). To pick
//! a warm-start source for a new session, the repository gathers the
//! signatures of every *finished* session on the same platform, aligns
//! them over the union of metric names, normalizes each dimension by its
//! standard deviation across candidates (so high-magnitude counters do
//! not drown out ratios), and returns the session with the smallest
//! Euclidean distance to the new session's probe — exactly the mapping
//! step of OtterTune §2.2, reusing `autotune-math` for the distance.
//!
//! **Why a scan.** The lookup runs when a warm-started session is created
//! and when a drift re-matches an epoch, never per advance. Signatures
//! are narrow (the widest platform, dbms, reports 26 metrics; hadoop 13,
//! spark 12, mtdbms 10), and a daemon holds every session it recovers in
//! memory, so the candidate count stays in the thousands at most. Over
//! 26-dimensional signatures a scan over the cached vectors measured
//! 15 µs per query at 1k candidates and 158 µs at 10k — against 29 µs and
//! 610 µs for the exact ball tree it replaced, whose rebuild after every
//! finished session also cost 7–8× the scan index's.

use crate::scheduler::lock;
use crate::spec::SessionSpec;
use crate::wal::{self, Durability, SessionStatus};
use crate::{ServeError, ServeResult};
use autotune_core::{Observation, SessionId};
use autotune_math::matrix::dist2;
use autotune_math::stats::std_dev;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Immutable per-session metadata, written once at create time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionMeta {
    /// The session's identifier (also its directory name).
    pub id: SessionId,
    /// The spec the session was created from.
    pub spec: SessionSpec,
    /// Which finished session seeded this one, if warm-started — recorded
    /// so crash recovery rebuilds the very same tuner.
    pub warm_source: Option<SessionId>,
    /// Creation time, milliseconds since the Unix epoch.
    pub created_unix_ms: u64,
}

/// A candidate signature for workload mapping.
#[derive(Debug, Clone)]
pub struct WorkloadSignature {
    /// Which session the signature belongs to.
    pub id: SessionId,
    /// Metric name → value of the baseline probe.
    pub metrics: BTreeMap<String, f64>,
}

/// Process-local signature cache shared by all clones of a repository.
/// Guarded by one mutex; no IO ever happens while it is held.
#[derive(Debug, Default)]
struct SigCache {
    /// Ids observed in a terminal state — never re-probed.
    settled: BTreeSet<SessionId>,
    /// Platform → signatures of settled finished sessions, ascending id.
    sigs: BTreeMap<String, Vec<WorkloadSignature>>,
    /// Platform → scan index, built lazily, dropped when the platform's
    /// signature list changes.
    indexes: BTreeMap<String, PlatformIndex>,
}

impl SigCache {
    /// Removes one session everywhere (eviction or vanished directory).
    fn forget(&mut self, id: SessionId) {
        self.settled.remove(&id);
        for (platform, sigs) in &mut self.sigs {
            let before = sigs.len();
            sigs.retain(|s| s.id != id);
            if sigs.len() != before {
                self.indexes.remove(platform);
            }
        }
    }
}

/// The on-disk session store rooted at one data directory.
#[derive(Debug, Clone)]
pub struct SessionRepository {
    root: PathBuf,
    cache: Arc<Mutex<SigCache>>,
}

impl SessionRepository {
    /// Opens (creating if needed) a repository at `root`.
    pub fn open(root: impl Into<PathBuf>) -> ServeResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(SessionRepository {
            root,
            cache: Arc::new(Mutex::new(SigCache::default())),
        })
    }

    /// The repository's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory of one session.
    pub fn session_dir(&self, id: SessionId) -> PathBuf {
        self.root.join(id.to_string())
    }

    /// All session ids present on disk, ascending.
    pub fn list_ids(&self) -> ServeResult<Vec<SessionId>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if let Ok(id) = entry.file_name().to_string_lossy().parse::<SessionId>() {
                ids.push(id);
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// The id the next created session should use (max on disk + 1).
    pub fn next_id(&self) -> ServeResult<SessionId> {
        Ok(self
            .list_ids()?
            .last()
            .map(|id| id.next())
            .unwrap_or(SessionId::new(1)))
    }

    /// Creates a session directory and persists its metadata. Fails if the
    /// id already exists — ids are never reused. In [`Durability::Fsync`]
    /// mode the metadata and both directory entries are fsynced: every
    /// record the daemon later acknowledges for this session is only
    /// recoverable through `meta.json`, so the metadata must meet the
    /// same durability bar as the records themselves.
    pub fn create_session(&self, meta: &SessionMeta, durability: Durability) -> ServeResult<()> {
        let dir = self.session_dir(meta.id);
        if dir.exists() {
            return Err(ServeError::Conflict(format!(
                "session {} already exists",
                meta.id
            )));
        }
        fs::create_dir_all(&dir)?;
        let json = serde_json::to_string_pretty(meta)
            .map_err(|e| ServeError::Corrupt(format!("meta encode: {e}")))?;
        let path = dir.join("meta.json");
        {
            use std::io::Write;
            let mut f = fs::File::create(&path)?;
            f.write_all(json.as_bytes())?;
            f.flush()?;
            if durability == Durability::Fsync {
                f.sync_data()?;
            }
        }
        if durability == Durability::Fsync {
            // Persist the directory entries too (session dir for
            // meta.json, root for the session dir). Best effort: not
            // every filesystem lets you fsync a directory handle.
            if let Ok(d) = fs::File::open(&dir) {
                let _ = d.sync_all();
            }
            if let Ok(d) = fs::File::open(&self.root) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads a session's metadata.
    pub fn read_meta(&self, id: SessionId) -> ServeResult<SessionMeta> {
        let path = self.session_dir(id).join("meta.json");
        let json = fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                ServeError::NotFound(format!("session {id}"))
            } else {
                ServeError::Io(e)
            }
        })?;
        serde_json::from_str(&json).map_err(|e| ServeError::Corrupt(format!("meta decode: {e}")))
    }

    /// Replays a session's durable state (snapshot ⊕ WAL).
    pub fn recover_session(&self, id: SessionId) -> ServeResult<wal::Recovered> {
        wal::recover(&self.session_dir(id))
    }

    /// Full observation log of a session, oldest first.
    pub fn load_observations(&self, id: SessionId) -> ServeResult<Vec<Observation>> {
        Ok(self.recover_session(id)?.observations)
    }

    /// Brings the signature cache up to date with the directory tree:
    /// probes ids the cache has not yet settled (all IO outside the
    /// lock), then applies insertions and drops entries whose directories
    /// vanished. Sessions that are still running — or half-created —
    /// stay unsettled and are probed again on the next refresh.
    fn refresh_sig_cache(&self) -> ServeResult<()> {
        let on_disk = self.list_ids()?;
        let unknown: Vec<SessionId> = {
            let cache = lock(&self.cache);
            on_disk
                .iter()
                .filter(|id| !cache.settled.contains(id))
                .copied()
                .collect()
        };
        let mut settled = Vec::new();
        let mut fresh: Vec<(String, WorkloadSignature)> = Vec::new();
        for id in unknown {
            let Ok(meta) = self.read_meta(id) else {
                continue; // half-created directory; not a warm candidate
            };
            let Ok(recovered) = self.recover_session(id) else {
                continue;
            };
            if !recovered.status.is_terminal() {
                continue;
            }
            settled.push(id);
            if recovered.status != SessionStatus::Finished {
                continue; // cancelled: settled but never a warm candidate
            }
            let Some(probe) = recovered.observations.first() else {
                continue;
            };
            if probe.metrics.is_empty() {
                continue; // unmappable: settled but never a warm candidate
            }
            fresh.push((
                meta.spec.platform().to_string(),
                WorkloadSignature {
                    id,
                    metrics: probe.metrics.clone(),
                },
            ));
        }
        let disk_set: BTreeSet<SessionId> = on_disk.into_iter().collect();
        let mut cache = lock(&self.cache);
        let vanished: Vec<SessionId> = cache
            .settled
            .iter()
            .filter(|id| !disk_set.contains(id))
            .copied()
            .collect();
        for id in vanished {
            cache.forget(id);
        }
        cache.settled.extend(settled);
        for (platform, sig) in fresh {
            let sigs = cache.sigs.entry(platform.clone()).or_default();
            // Concurrent refreshes may race on the same id; keep the list
            // duplicate-free and sorted.
            if let Err(pos) = sigs.binary_search_by(|s| s.id.cmp(&sig.id)) {
                sigs.insert(pos, sig);
                cache.indexes.remove(&platform);
            }
        }
        Ok(())
    }

    /// Signatures of every **finished** session on `platform`, excluding
    /// `exclude` (the session currently being created). Sessions whose
    /// probe reported no metrics cannot be mapped and are skipped.
    /// Served from the signature cache; ascending session id.
    pub fn finished_signatures(
        &self,
        platform: &str,
        exclude: Option<SessionId>,
    ) -> ServeResult<Vec<WorkloadSignature>> {
        self.refresh_sig_cache()?;
        let cache = lock(&self.cache);
        Ok(cache
            .sigs
            .get(platform)
            .map(|sigs| {
                sigs.iter()
                    .filter(|s| Some(s.id) != exclude)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default())
    }

    /// Deletes a session directory outright (retention eviction) and
    /// invalidates its signature-cache entry, so the evicted session can
    /// never be returned as a warm-start source again.
    pub fn delete_session(&self, id: SessionId) -> ServeResult<()> {
        let dir = self.session_dir(id);
        let result = match fs::remove_dir_all(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        };
        lock(&self.cache).forget(id);
        result
    }

    /// Every session id referenced as a warm-start source by any session
    /// still on disk — either at create time (`meta.json`) or by a
    /// recorded drift event (an epoch re-matched onto a new source mid
    /// run). These must survive retention eviction: recovering a
    /// warm-started session rebuilds its tuner from the source's
    /// observation log, so deleting the source would break recovery.
    pub fn warm_source_refs(&self) -> ServeResult<std::collections::BTreeSet<SessionId>> {
        let mut refs = std::collections::BTreeSet::new();
        for id in self.list_ids()? {
            if let Ok(meta) = self.read_meta(id) {
                if let Some(src) = meta.warm_source {
                    refs.insert(src);
                }
                if let Ok(recovered) = self.recover_session(id) {
                    refs.extend(recovered.drift_events.iter().filter_map(|e| e.warm_source));
                }
            }
        }
        Ok(refs)
    }

    /// Caps the number of *terminal* (finished/cancelled) session
    /// directories at `retain`, evicting oldest-first (session ids are
    /// allocated monotonically, so the lowest id is the oldest). Sessions
    /// referenced as a warm-start source by any surviving session are
    /// protected. Returns the evicted ids, ascending.
    pub fn enforce_retention(&self, retain: usize) -> ServeResult<Vec<SessionId>> {
        let mut terminal = Vec::new();
        for id in self.list_ids()? {
            if self.read_meta(id).is_err() {
                continue; // half-created directory; not a retention subject
            }
            let Ok(recovered) = self.recover_session(id) else {
                continue;
            };
            if recovered.status.is_terminal() {
                terminal.push(id);
            }
        }
        if terminal.len() <= retain {
            return Ok(Vec::new());
        }
        let protected = self.warm_source_refs()?;
        let mut excess = terminal.len() - retain;
        let mut evicted = Vec::new();
        for id in terminal {
            if excess == 0 {
                break;
            }
            if protected.contains(&id) {
                continue;
            }
            self.delete_session(id)?;
            evicted.push(id);
            excess -= 1;
        }
        Ok(evicted)
    }

    /// The finished session on `platform` whose workload signature is
    /// nearest to `probe_metrics` — the warm-start source. `None` when no
    /// finished session qualifies.
    ///
    /// Served by the cached per-platform `PlatformIndex`: the
    /// normalized vectors are (re)built only when the platform's
    /// finished-session set changed, and each query scans them. The
    /// result is identical to [`nearest_signature`] over the same
    /// candidates.
    pub fn nearest_finished(
        &self,
        platform: &str,
        probe_metrics: &BTreeMap<String, f64>,
        exclude: Option<SessionId>,
    ) -> ServeResult<Option<SessionId>> {
        self.refresh_sig_cache()?;
        let mut cache = lock(&self.cache);
        let cache = &mut *cache;
        let Some(sigs) = cache.sigs.get(platform) else {
            return Ok(None);
        };
        if sigs.is_empty() {
            return Ok(None);
        }
        let index = cache
            .indexes
            .entry(platform.to_string())
            .or_insert_with(|| PlatformIndex::build(sigs));
        Ok(index.nearest(probe_metrics, exclude))
    }
}

/// Nearest candidate to `query` by Euclidean distance over the union of
/// metric names, each dimension normalized by its standard deviation
/// across the candidates (dimensions with zero spread are inert). Ties
/// break toward the lowest session id for determinism.
///
/// This is the reference `PlatformIndex` must agree with; it rebuilds
/// the vectors on every call, so the daemon serves from the index.
pub fn nearest_signature(
    query: &BTreeMap<String, f64>,
    candidates: &[WorkloadSignature],
) -> Option<SessionId> {
    if candidates.is_empty() || query.is_empty() {
        return None;
    }
    // Union of metric names, sorted (BTreeMap keys already are).
    let mut names: Vec<&String> = query.keys().collect();
    for c in candidates {
        names.extend(c.metrics.keys());
    }
    names.sort();
    names.dedup();

    let vectorize = |m: &BTreeMap<String, f64>| -> Vec<f64> {
        names
            .iter()
            .map(|n| m.get(*n).copied().unwrap_or(0.0))
            .collect()
    };
    let qv = vectorize(query);
    let cvs: Vec<Vec<f64>> = candidates.iter().map(|c| vectorize(&c.metrics)).collect();

    // Per-dimension scale over the candidate set. The query is left out so
    // the scales — and the index built from them — depend only on the
    // candidates; a query-only dimension then contributes the same
    // constant to every candidate's distance, which never changes the
    // argmin.
    let scales = candidate_scales(&cvs, names.len());
    let normalize = |v: &[f64]| -> Vec<f64> { v.iter().zip(&scales).map(|(x, s)| x / s).collect() };

    let qn = normalize(&qv);
    candidates
        .iter()
        .zip(cvs.iter())
        .map(|(c, v)| (c.id, dist2(&qn, &normalize(v))))
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(id, _)| id)
}

/// Per-dimension standard deviation of the candidate vectors; a
/// zero-spread dimension gets scale 1 so it stays inert.
fn candidate_scales(vectors: &[Vec<f64>], dims: usize) -> Vec<f64> {
    (0..dims)
        .map(|d| {
            let column: Vec<f64> = vectors.iter().map(|v| v[d]).collect();
            let sd = std_dev(&column);
            if sd > 0.0 {
                sd
            } else {
                1.0
            }
        })
        .collect()
}

/// One platform's workload-mapping index: the vectorization recipe
/// (metric names + per-dimension scales) and the normalized candidate
/// vectors, ascending id.
///
/// Query-only metric names are dropped when vectorizing a query: a
/// dimension every candidate lacks contributes the same constant to every
/// distance, so dropping it never changes the argmin ([`nearest_signature`]
/// keeps such dimensions; both pick the same winner).
#[derive(Debug, Clone)]
pub(crate) struct PlatformIndex {
    names: Vec<String>,
    scales: Vec<f64>,
    points: Vec<(SessionId, Vec<f64>)>,
}

impl PlatformIndex {
    /// Builds the index over a platform's finished-session signatures.
    /// Dimensions are the union of candidate metric names; each is scaled
    /// by the candidate standard deviation (zero-spread dimensions are
    /// inert), matching [`nearest_signature`].
    pub(crate) fn build(sigs: &[WorkloadSignature]) -> Self {
        let mut names: Vec<String> = sigs
            .iter()
            .flat_map(|s| s.metrics.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        let vectors: Vec<Vec<f64>> = sigs
            .iter()
            .map(|s| {
                names
                    .iter()
                    .map(|n| s.metrics.get(n).copied().unwrap_or(0.0))
                    .collect()
            })
            .collect();
        let scales = candidate_scales(&vectors, names.len());
        let points = sigs
            .iter()
            .zip(vectors)
            .map(|(s, v)| (s.id, v.iter().zip(&scales).map(|(x, sc)| x / sc).collect()))
            .collect();
        PlatformIndex {
            names,
            scales,
            points,
        }
    }

    /// The indexed signature nearest to `query` (lowest id on ties),
    /// skipping `exclude` — the id [`nearest_signature`] would return.
    /// `None` for an empty index or an empty query.
    pub(crate) fn nearest(
        &self,
        query: &BTreeMap<String, f64>,
        exclude: Option<SessionId>,
    ) -> Option<SessionId> {
        if query.is_empty() {
            return None;
        }
        let qv: Vec<f64> = self
            .names
            .iter()
            .zip(&self.scales)
            .map(|(n, sc)| query.get(n).copied().unwrap_or(0.0) / sc)
            .collect();
        self.points
            .iter()
            .filter(|(id, _)| Some(*id) != exclude)
            .map(|(id, p)| (*id, dist2(&qv, p)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(id: u64, pairs: &[(&str, f64)]) -> WorkloadSignature {
        WorkloadSignature {
            id: SessionId::new(id),
            metrics: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn nearest_picks_closest_after_normalization() {
        // Raw distance would be dominated by `rows` (magnitude ~1e6);
        // normalization makes `hit_ratio` matter equally.
        let query: BTreeMap<String, f64> = [
            ("hit_ratio".to_string(), 0.90),
            ("rows".to_string(), 1_000_000.0),
        ]
        .into_iter()
        .collect();
        let far = sig(1, &[("hit_ratio", 0.10), ("rows", 1_000_000.0)]);
        let near = sig(2, &[("hit_ratio", 0.88), ("rows", 1_050_000.0)]);
        assert_eq!(
            nearest_signature(&query, &[far, near]),
            Some(SessionId::new(2))
        );
    }

    #[test]
    fn nearest_handles_disjoint_metrics_and_ties() {
        let query: BTreeMap<String, f64> = [("a".to_string(), 1.0)].into_iter().collect();
        // Both candidates equidistant → lowest id wins.
        let c1 = sig(3, &[("a", 2.0)]);
        let c2 = sig(5, &[("a", 0.0)]);
        assert_eq!(
            nearest_signature(&query, &[c2, c1]),
            Some(SessionId::new(3))
        );
        assert_eq!(nearest_signature(&query, &[]), None);
        assert_eq!(
            nearest_signature(&BTreeMap::new(), &[sig(1, &[("a", 1.0)])]),
            None
        );
    }

    /// Deterministic pseudo-random signature population.
    fn population(n: usize, seed: u64) -> Vec<WorkloadSignature> {
        use crate::session::splitmix64;
        (0..n)
            .map(|i| {
                let h = |k: u64| {
                    let x = splitmix64(seed ^ splitmix64(i as u64 * 7 + k));
                    (x % 10_000) as f64 / 10_000.0
                };
                sig(
                    i as u64 + 1,
                    &[
                        ("hit_ratio", h(1)),
                        ("spill_mb", h(2) * 4096.0),
                        ("gc_secs", h(3) * 30.0),
                        ("rows", 1e6 + h(4) * 1e6),
                    ],
                )
            })
            .collect()
    }

    /// The index answers every query, with and without an exclusion,
    /// exactly as the reference scan does — whatever the input order.
    fn assert_index_matches_reference(
        sigs: &[WorkloadSignature],
        queries: &[BTreeMap<String, f64>],
    ) {
        let index = PlatformIndex::build(sigs);
        let mut reversed = sigs.to_vec();
        reversed.reverse();
        let reversed = PlatformIndex::build(&reversed);
        for q in queries {
            let want = nearest_signature(q, sigs);
            assert_eq!(index.nearest(q, None), want, "index diverged from scan");
            assert_eq!(
                reversed.nearest(q, None),
                want,
                "input order changed the answer"
            );
            // Excluding a loser changes nothing; excluding the winner
            // promotes another candidate.
            let winner = want.expect("non-empty candidates");
            let loser = sigs.iter().map(|s| s.id).find(|&id| id != winner);
            assert_eq!(index.nearest(q, loser), want);
            let runner_up = index.nearest(q, Some(winner));
            assert!(runner_up.is_some() && runner_up != want);
        }
    }

    #[test]
    fn cached_scan_matches_reference_scan() {
        let sigs = population(200, 11);
        let queries: Vec<_> = population(64, 99).into_iter().map(|s| s.metrics).collect();
        assert_index_matches_reference(&sigs, &queries);
    }

    #[test]
    fn cached_scan_matches_reference_on_simulator_probes() {
        // Real baseline probes (vendor default under realistic noise) of
        // the two dbms workloads: the metric vectors the daemon indexes.
        // The noise models perturb runtime only, so every probe of one
        // workload reports the same 26 metrics and each query is an exact
        // tie among that workload's sessions: the lowest id must win.
        use crate::session::baseline_probe;
        let probe = |system: &str, seed: u64| {
            let spec = SessionSpec {
                system: system.into(),
                tuner: "random".into(),
                seed,
                budget: 1,
                noise: "realistic".into(),
                warm_start: false,
                constraints: false,
                adaptive: Default::default(),
                drift: Default::default(),
            };
            let mut objective = crate::spec::build_objective(&spec).unwrap();
            baseline_probe(&mut *objective, seed, 0).metrics
        };
        let systems = ["dbms-oltp", "dbms-olap"];
        let sigs: Vec<WorkloadSignature> = (0..24u64)
            .flat_map(|seed| systems.map(|system| (system, seed)))
            .enumerate()
            .map(|(i, (system, seed))| WorkloadSignature {
                id: SessionId::new(i as u64 + 1),
                metrics: probe(system, seed),
            })
            .collect();
        let queries: Vec<(usize, BTreeMap<String, f64>)> = (100..124u64)
            .flat_map(|seed| (0..systems.len()).map(move |w| (w, seed)))
            .map(|(w, seed)| (w, probe(systems[w], seed)))
            .collect();
        let bare: Vec<_> = queries.iter().map(|(_, q)| q.clone()).collect();
        assert_index_matches_reference(&sigs, &bare);
        // Workload mapping proper: each probe maps onto the oldest session
        // of its own workload (candidate ids alternate oltp, olap).
        let index = PlatformIndex::build(&sigs);
        for (w, q) in &queries {
            let oldest = SessionId::new(*w as u64 + 1);
            assert_eq!(index.nearest(q, None), Some(oldest), "{}", systems[*w]);
        }
    }

    #[test]
    fn cached_scan_respects_exclusion_and_ties() {
        // Two identical signatures: the lowest id wins; excluding it
        // promotes the other.
        let sigs = vec![
            sig(4, &[("a", 1.0), ("b", 2.0)]),
            sig(2, &[("a", 1.0), ("b", 2.0)]),
            sig(9, &[("a", 50.0), ("b", -3.0)]),
        ];
        let index = PlatformIndex::build(&sigs);
        let q = sig(0, &[("a", 1.0), ("b", 2.0)]).metrics;
        assert_eq!(index.nearest(&q, None), Some(SessionId::new(2)));
        assert_eq!(nearest_signature(&q, &sigs), Some(SessionId::new(2)));
        assert_eq!(
            index.nearest(&q, Some(SessionId::new(2))),
            Some(SessionId::new(4))
        );
    }

    #[test]
    fn index_empty_cases() {
        let index = PlatformIndex::build(&[]);
        assert_eq!(index.nearest(&BTreeMap::new(), None), None);
        assert_eq!(index.nearest(&sig(0, &[("a", 0.5)]).metrics, None), None);
        let one = PlatformIndex::build(&[sig(1, &[("a", 1.0)])]);
        assert_eq!(one.nearest(&BTreeMap::new(), None), None);
        let q = sig(0, &[("a", 0.5)]).metrics;
        assert_eq!(one.nearest(&q, None), Some(SessionId::new(1)));
        assert_eq!(one.nearest(&q, Some(SessionId::new(1))), None);
    }

    #[test]
    fn query_only_metrics_do_not_change_the_winner() {
        let sigs = vec![sig(1, &[("a", 1.0)]), sig(2, &[("a", 4.0)])];
        let index = PlatformIndex::build(&sigs);
        let q = sig(0, &[("a", 1.2), ("exotic", 1e9)]).metrics;
        assert_eq!(index.nearest(&q, None), Some(SessionId::new(1)));
        assert_eq!(index.nearest(&q, None), nearest_signature(&q, &sigs));
    }

    #[test]
    fn repository_ids_and_meta_roundtrip() {
        let root = std::env::temp_dir().join(format!("autotune-repo-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let repo = SessionRepository::open(&root).unwrap();
        assert_eq!(repo.next_id().unwrap(), SessionId::new(1));

        let meta = SessionMeta {
            id: SessionId::new(1),
            spec: SessionSpec {
                system: "dbms-oltp".into(),
                tuner: "random".into(),
                seed: 7,
                budget: 3,
                noise: "none".into(),
                warm_start: false,
                constraints: false,
                adaptive: Default::default(),
                drift: Default::default(),
            },
            warm_source: None,
            created_unix_ms: 1_700_000_000_000,
        };
        repo.create_session(&meta, Durability::Fsync).unwrap();
        assert!(matches!(
            repo.create_session(&meta, Durability::Flush),
            Err(ServeError::Conflict(_))
        ));
        let back = repo.read_meta(SessionId::new(1)).unwrap();
        assert_eq!(back.spec, meta.spec);
        assert_eq!(repo.next_id().unwrap(), SessionId::new(2));
        assert!(matches!(
            repo.read_meta(SessionId::new(9)),
            Err(ServeError::NotFound(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }
}
