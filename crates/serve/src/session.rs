//! Live sessions: the in-memory half of a persistent tuning session.
//!
//! A [`LiveSession`] pairs a tuner + objective with the session's durable
//! log. Every observation is appended to the WAL *before* it is applied
//! in memory, so a crash at any point loses at most a torn final line.
//!
//! **One step machine.** Observation index `i` is one of three step
//! kinds, decided by a single function from the epoch scope alone:
//!
//! * an **epoch probe** (`i` is the epoch's first index): the vendor
//!   default, whose metric vector is the epoch's workload signature —
//!   observation 0 of every session, and the re-probe after a drift;
//! * a **canary** (drift detection on, every `probe_every` indices into
//!   the epoch): the vendor default again, fed to the drift detector;
//! * a **proposal**: `Tuner::propose` on the epoch's history. A
//!   configuration the epoch already measured replays the stored
//!   observation instead of re-running the objective.
//!
//! Applying an observation is two halves: log the record, then *absorb*
//! it (tuner `observe`, detector reset or feed, history append).
//!
//! **Split RNG streams.** Determinism through crashes needs care: the
//! classic single-RNG session (`autotune_core::TuningSession`) threads
//! one stream through proposals *and* evaluations, so recovery would have
//! to re-run every evaluation just to restore the stream. Instead a live
//! session derives two independent streams from its seed:
//!
//! * the **propose stream** (`StdRng::seed_from_u64(seed)`, reseeded per
//!   epoch by [`epoch_seed`]) feeds only `Tuner::propose`;
//! * each evaluation gets a **fresh step RNG**,
//!   `StdRng::seed_from_u64(splitmix64(seed ⊕ splitmix64(step)))`, where
//!   `step` is the observation index.
//!
//! **Recovery** feeds the recorded observations through the same machine
//! without touching the objective: a recorded drift event opens its epoch
//! with the live epoch reset, a proposal step draws (and discards) the
//! proposal the recorded observation answered — restoring the propose
//! stream — and every observation is absorbed. The next evaluation's RNG
//! depends only on its step index, so the recovered session continues
//! producing byte-for-byte the observations the uninterrupted run would
//! have. Terminal sessions never propose again and restore their history
//! without the tuner.

use crate::drift::{DriftDetector, DriftEvent};
use crate::repo::{SessionMeta, SessionRepository};
use crate::spec::{build_objective, build_tuner};
use crate::wal::{self, Durability, SessionStatus, Snapshot, WalRecord, WalSink};
use crate::{ServeError, ServeResult};
use autotune_core::{
    Configuration, History, Objective, Observation, Recommendation, Tuner, TuningContext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// SplitMix64 (Steele et al.) — the standard seed-spreading finalizer;
/// consecutive inputs map to statistically independent outputs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the per-step evaluation RNG for observation `step`.
pub fn eval_seed(session_seed: u64, step: u64) -> u64 {
    splitmix64(session_seed ^ splitmix64(step))
}

/// Seed of the propose stream for `epoch`. Epoch 0 is the raw session
/// seed, so sessions that never drift keep their exact historical
/// streams; each later epoch reseeds deterministically from (seed, epoch)
/// alone, which is all recovery has.
pub fn epoch_seed(session_seed: u64, epoch: u32) -> u64 {
    if epoch == 0 {
        session_seed
    } else {
        splitmix64(session_seed ^ splitmix64(0xD21F_7000_u64 + epoch as u64))
    }
}

/// Evaluates `config` as observation `step`: positions time-varying
/// objectives at the step and seeds the step's own RNG.
fn evaluate_step(
    objective: &mut dyn Objective,
    config: &Configuration,
    session_seed: u64,
    step: u64,
) -> Observation {
    objective.seek(step);
    let mut rng = StdRng::seed_from_u64(eval_seed(session_seed, step));
    objective.evaluate(config, &mut rng)
}

/// Evaluates the vendor-default configuration as observation `step` —
/// an epoch's baseline probe or a canary.
pub(crate) fn baseline_probe(
    objective: &mut dyn Objective,
    session_seed: u64,
    step: u64,
) -> Observation {
    let default = objective.space().default_config();
    evaluate_step(objective, &default, session_seed, step)
}

/// What one observation index of a session is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The epoch's baseline probe (vendor default, reference signature).
    Probe,
    /// A scheduled vendor-default re-run fed to the drift detector.
    Canary,
    /// A tuner proposal.
    Proposal,
}

/// One session held in memory by the daemon, backed by its on-disk log.
pub struct LiveSession {
    /// Immutable metadata (spec, warm source).
    pub meta: SessionMeta,
    dir: PathBuf,
    /// Repository handle, kept for drift re-matching (warm-source lookup
    /// against the signature index) and epoch tuner rebuilds.
    repo: SessionRepository,
    objective: Box<dyn Objective + Send>,
    tuner: Box<dyn Tuner + Send>,
    ctx: TuningContext,
    propose_rng: StdRng,
    history: History,
    status: SessionStatus,
    recommendation: Option<Recommendation>,
    snapshot_every: usize,
    snapshot_seq: u64,
    sink: WalSink,
    /// Records sent through a group sink since the last snapshot — the
    /// journal-retention count handed to `mark_clean` at snapshot time.
    journal_pending: u64,
    /// Highest group-commit ticket issued for this session's records.
    /// Response paths await it before promising durability.
    last_ticket: u64,
    /// Corruption note from recovery, if the WAL scan stopped early.
    recovery_corruption: Option<String>,
    /// Online drift detector (`None` when the spec turns detection off —
    /// the bit-identical legacy configuration).
    detector: Option<DriftDetector>,
    /// Current epoch (0 until the first drift).
    epoch: u32,
    /// History index of the current epoch's baseline probe. Dedup replay
    /// and detector state are scoped to `history[epoch_start..]`, so a
    /// configuration measured before a drift is re-measured after it.
    epoch_start: usize,
    /// The current epoch's slice of `history`, maintained in parallel so
    /// the tuner trains and recommends on post-drift data only — handing
    /// it the full history would quietly re-poison a restarted model with
    /// stale pre-drift measurements. Identical to `history` until the
    /// first drift; left empty in a session recovered terminal, whose
    /// tuner never runs again.
    epoch_history: History,
    /// Every drift this session has detected, in order.
    drift_events: Vec<DriftEvent>,
    /// Detector statistic of an alarm `advance` has not yet handled.
    drift_pending: Option<f64>,
}

impl LiveSession {
    /// The empty step machine of a session: objective, tuner (warm-started
    /// from `warm`, the observation log of `meta.warm_source`), context,
    /// drift detector and epoch-0 propose stream. Touches no files.
    fn new(
        repo: &SessionRepository,
        meta: SessionMeta,
        warm: Option<Vec<Observation>>,
        snapshot_every: usize,
        sink: WalSink,
    ) -> ServeResult<LiveSession> {
        let objective = build_objective(&meta.spec)?;
        let warm_id = meta.warm_source.map(|id| id.to_string());
        let tuner = build_tuner(&meta.spec, warm_id.as_deref().zip(warm.as_deref()))?;
        let ctx = TuningContext {
            space: objective.space().clone(),
            profile: objective.profile(),
        };
        Ok(LiveSession {
            propose_rng: StdRng::seed_from_u64(meta.spec.seed),
            detector: meta.spec.drift.build_detector()?,
            dir: repo.session_dir(meta.id),
            meta,
            repo: repo.clone(),
            objective,
            tuner,
            ctx,
            history: History::new(),
            status: SessionStatus::Running,
            recommendation: None,
            snapshot_every: snapshot_every.max(1),
            snapshot_seq: 0,
            sink,
            journal_pending: 0,
            last_ticket: 0,
            recovery_corruption: None,
            epoch: 0,
            epoch_start: 0,
            epoch_history: History::new(),
            drift_events: Vec::new(),
            drift_pending: None,
        })
    }

    /// Creates a brand-new session with a direct flush-mode WAL sink —
    /// the standalone (non-daemon) configuration used by tools and tests.
    pub fn create(
        repo: &SessionRepository,
        meta: SessionMeta,
        warm: Option<Vec<Observation>>,
        snapshot_every: usize,
    ) -> ServeResult<LiveSession> {
        LiveSession::create_with(
            repo,
            meta,
            warm,
            snapshot_every,
            WalSink::Direct(Durability::Flush),
        )
    }

    /// Creates a brand-new session: writes `meta.json`, runs the baseline
    /// probe (vendor defaults, observation 0), and logs it through `sink`.
    /// `warm` is the observation log of the warm-start source named in
    /// `meta`.
    pub fn create_with(
        repo: &SessionRepository,
        meta: SessionMeta,
        warm: Option<Vec<Observation>>,
        snapshot_every: usize,
        sink: WalSink,
    ) -> ServeResult<LiveSession> {
        let mut session = LiveSession::new(repo, meta, warm, snapshot_every, sink)?;
        repo.create_session(&session.meta, session.sink.durability())?;
        let probe = session.next_observation();
        session.apply(probe)?;
        Ok(session)
    }

    /// Rebuilds a session from its on-disk log with a direct flush-mode
    /// sink and no journal tail — the standalone configuration.
    pub fn recover(
        repo: &SessionRepository,
        meta: SessionMeta,
        snapshot_every: usize,
    ) -> ServeResult<LiveSession> {
        LiveSession::recover_with(
            repo,
            meta,
            snapshot_every,
            WalSink::Direct(Durability::Flush),
            Vec::new(),
        )
    }

    /// Rebuilds a session from its on-disk log plus any records the
    /// shared journal holds for it (`journal_tail`, in append order — the
    /// daemon demuxes these at startup; records the per-session WAL
    /// already covers are deduplicated by sequence number). A running
    /// session replays every recorded observation through the step
    /// machine (restoring model and propose-stream state) without
    /// re-running the objective; terminal sessions skip the replay since
    /// they will never propose again.
    pub fn recover_with(
        repo: &SessionRepository,
        meta: SessionMeta,
        snapshot_every: usize,
        sink: WalSink,
        journal_tail: Vec<WalRecord>,
    ) -> ServeResult<LiveSession> {
        let warm = match meta.warm_source {
            Some(src) => Some(repo.load_observations(src)?),
            None => None,
        };
        let mut session = LiveSession::new(repo, meta, warm, snapshot_every, sink)?;
        let mut recovered = repo.recover_session(session.meta.id)?;
        for record in journal_tail {
            wal::apply_record(&mut recovered, record);
        }
        session.drift_events = recovered.drift_events;
        session.drift_events.sort_by_key(|e| e.at_seq);
        session.status = recovered.status;
        session.recommendation = recovered.recommendation;
        session.snapshot_seq = recovered.snapshot_seq;
        session.recovery_corruption = recovered.corruption;
        // A log recovered past an invalid frame or a gap is rewritten
        // from the recovered state, so no later frame or record lands
        // behind the damage.
        let repair = session.recovery_corruption.is_some();
        if session.status != SessionStatus::Running {
            session.restore_terminal(recovered.observations);
            if repair {
                session.compact(true)?;
            }
            return Ok(session);
        }
        for obs in recovered.observations {
            session.replay(obs)?;
        }
        if repair {
            session.compact(true)?;
        }
        // Dangling drift event: the crash fell between the Drift record
        // and its re-probe observation. The event already fixes everything
        // the re-probe needs (step index, epoch seed, warm source), so
        // redo it deterministically now.
        if let Some(event) = session.recorded_drift_at_next() {
            session.reset_for_epoch(&event)?;
            let probe = session.next_observation();
            session.apply(probe)?;
        }
        Ok(session)
    }

    /// Replays one recorded observation of a running session: opens the
    /// epoch a drift event recorded at its index, re-draws the proposal
    /// it answered (the draw itself restores the propose stream; its
    /// result is the recorded configuration), then absorbs it.
    fn replay(&mut self, obs: Observation) -> ServeResult<()> {
        if let Some(event) = self.recorded_drift_at_next() {
            // Rebuild from the *recorded* warm source, not a fresh
            // index query — the index may have changed since.
            self.reset_for_epoch(&event)?;
        }
        if self.next_step() == Step::Proposal {
            let _ = self
                .tuner
                .propose(&self.ctx, &self.epoch_history, &mut self.propose_rng);
        }
        self.absorb(obs);
        Ok(())
    }

    /// Restores a terminal session's history and epoch scope without its
    /// tuner, detector or epoch history, which no later step can consult.
    fn restore_terminal(&mut self, observations: Vec<Observation>) {
        let len = observations.len();
        if let Some(event) = self
            .drift_events
            .iter()
            .rfind(|e| (e.at_seq as usize) < len)
        {
            self.epoch = event.epoch;
            self.epoch_start = event.at_seq as usize;
        }
        self.history = History::from_observations(observations);
    }

    /// The recorded drift event that opens an epoch at the next history
    /// index, if any.
    fn recorded_drift_at_next(&self) -> Option<DriftEvent> {
        let next = self.history.len() as u64;
        self.drift_events.iter().find(|e| e.at_seq == next).cloned()
    }

    /// Swaps the WAL sink (the daemon rewires recovered sessions onto the
    /// shared group-commit writer once startup journal folding is done).
    pub fn set_sink(&mut self, sink: WalSink) {
        self.sink = sink;
        self.journal_pending = 0;
        self.last_ticket = 0;
    }

    /// The sink and highest outstanding durability ticket, for callers
    /// that must await durability *after* releasing the session lock.
    pub fn durability_barrier(&self) -> (WalSink, u64) {
        (self.sink.clone(), self.last_ticket)
    }

    /// Corruption note from recovery: set when the WAL scan stopped at an
    /// invalid frame and the session resumed from the surviving prefix.
    pub fn recovery_corruption(&self) -> Option<&str> {
        self.recovery_corruption.as_deref()
    }

    /// Logs a record through the sink, tracking journal retention.
    fn log(&mut self, record: &WalRecord) -> ServeResult<()> {
        self.last_ticket = self.sink.append(&self.dir, self.meta.id, record)?;
        if matches!(self.sink, WalSink::Group(_)) {
            self.journal_pending += 1;
        }
        Ok(())
    }

    /// The kind of the next history index — the one decision both
    /// [`Self::advance`] and recovery replay follow. Canaries exist only
    /// with a detector: a default-configuration re-run is the only metric
    /// vector the detector consumes (config held fixed, so signature
    /// change is workload change).
    fn next_step(&self) -> Step {
        let into_epoch = self.history.len() - self.epoch_start;
        if into_epoch == 0 {
            Step::Probe
        } else if self.detector.is_some()
            && into_epoch.is_multiple_of(self.meta.spec.drift.probe_every)
        {
            Step::Canary
        } else {
            Step::Proposal
        }
    }

    /// Produces the observation for the next history index according to
    /// its step kind. Proposals of a configuration the current epoch
    /// already measured replay the stored observation (the dedup rule of
    /// `autotune_core::TuningSession`); pre-drift measurements are stale
    /// and never replayed.
    fn next_observation(&mut self) -> Observation {
        let step = self.history.len() as u64;
        let seed = self.meta.spec.seed;
        match self.next_step() {
            Step::Probe | Step::Canary => baseline_probe(&mut *self.objective, seed, step),
            Step::Proposal => {
                let config =
                    self.tuner
                        .propose(&self.ctx, &self.epoch_history, &mut self.propose_rng);
                match self.epoch_history.find_config(&config) {
                    Some(prev) => prev.clone(),
                    None => evaluate_step(&mut *self.objective, &config, seed, step),
                }
            }
        }
    }

    /// Logs an observation durably, absorbs it, and compacts the log when
    /// a snapshot is due.
    fn apply(&mut self, obs: Observation) -> ServeResult<()> {
        self.log(&WalRecord::Obs {
            seq: self.history.len() as u64,
            obs: obs.clone(),
        })?;
        self.absorb(obs);
        if self.history.len() as u64 - self.snapshot_seq >= self.snapshot_every as u64 {
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Applies an observation in memory: the tuner observes it, an epoch
    /// probe resets the drift detector's reference signature, a canary
    /// feeds the detector (unless an alarm is already pending), and both
    /// histories grow.
    fn absorb(&mut self, obs: Observation) {
        let kind = self.next_step();
        self.tuner.observe(&obs);
        if let Some(det) = self.detector.as_mut() {
            match kind {
                Step::Probe => det.reset(&obs.metrics),
                Step::Canary if self.drift_pending.is_none() => {
                    self.drift_pending = det.feed(&obs.metrics);
                }
                _ => {}
            }
        }
        self.epoch_history.push(obs.clone());
        self.history.push(obs);
    }

    /// Applies a drift event's epoch reset: a fresh tuner (warm-started
    /// from the event's recorded source), a reseeded propose stream, a
    /// cleared alarm, and an epoch scope starting at the event's re-probe
    /// index.
    fn reset_for_epoch(&mut self, event: &DriftEvent) -> ServeResult<()> {
        let warm = match event.warm_source {
            Some(src) => Some((src.to_string(), self.repo.load_observations(src)?)),
            None => None,
        };
        self.tuner = build_tuner(
            &self.meta.spec,
            warm.as_ref().map(|(id, o)| (id.as_str(), o.as_slice())),
        )?;
        self.propose_rng = StdRng::seed_from_u64(epoch_seed(self.meta.spec.seed, event.epoch));
        self.drift_pending = None;
        self.epoch = event.epoch;
        self.epoch_start = event.at_seq as usize;
        self.epoch_history = History::new();
        Ok(())
    }

    /// Handles a detector alarm: re-probe the workload, re-match a warm
    /// source against the new signature, and make the whole decision
    /// durable *before* the re-probe observation so recovery replays it
    /// identically. Returns the re-probe, the new epoch's first
    /// observation.
    fn handle_drift(&mut self, stat: f64) -> ServeResult<Observation> {
        let at_seq = self.history.len() as u64;
        // The re-probe's signature is what the workload looks like *now*;
        // match the new epoch's warm source against it.
        let probe = baseline_probe(&mut *self.objective, self.meta.spec.seed, at_seq);
        let warm_source = if self.meta.spec.warm_start {
            let platform = self.meta.spec.platform().to_string();
            self.repo
                .nearest_finished(&platform, &probe.metrics, Some(self.meta.id))?
        } else {
            None
        };
        let event = DriftEvent {
            at_seq,
            epoch: self.epoch + 1,
            stat,
            warm_source,
        };
        self.log(&WalRecord::Drift {
            event: event.clone(),
        })?;
        self.reset_for_epoch(&event)?;
        self.drift_events.push(event);
        Ok(probe)
    }

    /// Runs up to `steps` tuner-driven evaluations, finishing the session
    /// when the budget is exhausted. Returns how many ran.
    pub fn advance(&mut self, steps: usize) -> ServeResult<usize> {
        if self.status.is_terminal() {
            return Err(ServeError::Conflict(format!(
                "session {} is {}",
                self.meta.id,
                self.status.label()
            )));
        }
        let mut ran = 0;
        while ran < steps && self.evaluations() < self.meta.spec.budget {
            // A detector alarm from the previous canary opens a new epoch:
            // this step becomes its re-probe instead of a proposal.
            let obs = match self.drift_pending.take() {
                Some(stat) => self.handle_drift(stat)?,
                None => self.next_observation(),
            };
            self.apply(obs)?;
            ran += 1;
        }
        if self.evaluations() >= self.meta.spec.budget {
            self.finish()?;
        }
        Ok(ran)
    }

    /// Finishes the session: computes and logs the final recommendation.
    fn finish(&mut self) -> ServeResult<()> {
        let recommendation = self.tuner.recommend(&self.ctx, &self.epoch_history);
        self.log(&WalRecord::Finished {
            recommendation: recommendation.clone(),
        })?;
        self.recommendation = Some(recommendation);
        self.status = SessionStatus::Finished;
        self.tuner.finish();
        self.write_snapshot()
    }

    /// Cancels the session: history is retained, advancing is refused.
    pub fn cancel(&mut self) -> ServeResult<()> {
        if self.status.is_terminal() {
            return Err(ServeError::Conflict(format!(
                "session {} is already {}",
                self.meta.id,
                self.status.label()
            )));
        }
        self.log(&WalRecord::Cancelled)?;
        self.status = SessionStatus::Cancelled;
        self.tuner.finish();
        self.write_snapshot()
    }

    /// Compacts the log: append to the snapshot log what it lacks (at the
    /// sink's durability), truncate the WAL, and release the covered
    /// journal records.
    pub fn write_snapshot(&mut self) -> ServeResult<()> {
        self.compact(false)
    }

    /// [`Self::write_snapshot`], or with `rewrite` the repair that
    /// replaces the whole snapshot log with one frame.
    fn compact(&mut self, rewrite: bool) -> ServeResult<()> {
        let snapshot = Snapshot {
            seq: self.history.len() as u64,
            history: self.history.clone(),
            status: self.status,
            recommendation: self.recommendation.clone(),
            drift_events: self.drift_events.clone(),
        };
        // Group sinks append the frame and let the committer make it
        // durable (fdatasync + retention release) once the covering
        // ticket is synced, so the worker never blocks on a snapshot
        // sync. Fall back to the synchronous path when the committer is
        // gone — graceful shutdown writes its final snapshots after the
        // journal drain.
        if let WalSink::Group(group) = &self.sink {
            // After a journal failure the records since the last durable
            // point were never acknowledged; a snapshot frame would make
            // them durable after all (graceful shutdown snapshots every
            // session).
            group.check()?;
            if !rewrite
                && wal::write_snapshot_deferred(
                    &self.dir,
                    &snapshot,
                    group,
                    self.journal_pending,
                    self.last_ticket,
                )?
            {
                self.snapshot_seq = self.history.len() as u64;
                self.journal_pending = 0;
                return Ok(());
            }
        }
        let durability = self.sink.durability();
        if rewrite {
            wal::rewrite_snapshot(&self.dir, &snapshot, durability)?;
        } else {
            wal::write_snapshot(&self.dir, &snapshot, durability)?;
        }
        self.snapshot_seq = self.history.len() as u64;
        // The snapshot may only release journal records that are actually
        // on disk, else the committer could recycle journal entries of
        // *other* sessions that no snapshot covers yet. Rather than stall
        // here waiting for this session's newest ticket, hand the release
        // to the committer, which applies it once the ticket is synced.
        self.sink
            .mark_clean_at(self.journal_pending, self.last_ticket);
        self.journal_pending = 0;
        Ok(())
    }

    /// Tuner-driven evaluations so far (the baseline probe is excluded).
    pub fn evaluations(&self) -> usize {
        self.history.len().saturating_sub(1)
    }

    /// Full observation history, probe first.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The knob space the session tunes (for CSV export).
    pub fn space(&self) -> &autotune_core::ConfigSpace {
        &self.ctx.space
    }

    /// Current lifecycle state.
    pub fn status(&self) -> SessionStatus {
        self.status
    }

    /// Final recommendation, once finished.
    pub fn recommendation(&self) -> Option<&Recommendation> {
        self.recommendation.as_ref()
    }

    /// Best measured runtime so far, if any run succeeded.
    pub fn best_runtime(&self) -> Option<f64> {
        self.history
            .best()
            .filter(|o| !o.failed)
            .map(|o| o.runtime_secs)
    }

    /// WAL size on disk right now.
    pub fn wal_bytes(&self) -> u64 {
        wal::wal_bytes(&self.dir)
    }

    /// Current drift epoch (0 until the first detected drift).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Every drift event this session has detected, oldest first.
    pub fn drift_events(&self) -> &[DriftEvent] {
        &self.drift_events
    }

    /// Observability snapshot of the tuner's GP surrogate: training-set
    /// size, lifetime full-fit count. `None` for tuners without a
    /// surrogate or before the first model fit.
    pub fn surrogate_stats(&self) -> Option<autotune_core::SurrogateStats> {
        self.tuner.surrogate_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SessionSpec;
    use autotune_core::SessionId;

    fn repo(tag: &str) -> SessionRepository {
        let root =
            std::env::temp_dir().join(format!("autotune-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        SessionRepository::open(root).unwrap()
    }

    fn meta(repo: &SessionRepository, seed: u64, budget: usize, tuner: &str) -> SessionMeta {
        SessionMeta {
            id: repo.next_id().unwrap(),
            spec: SessionSpec {
                system: "dbms-oltp".into(),
                tuner: tuner.into(),
                seed,
                budget,
                noise: "none".into(),
                warm_start: false,
                constraints: false,
                adaptive: Default::default(),
                drift: Default::default(),
            },
            warm_source: None,
            created_unix_ms: 0,
        }
    }

    #[test]
    fn advance_to_budget_finishes_with_recommendation() {
        let r = repo("finish");
        let mut s = LiveSession::create(&r, meta(&r, 5, 4, "random"), None, 16).unwrap();
        assert_eq!(s.history().len(), 1, "probe recorded");
        assert_eq!(s.advance(10).unwrap(), 4, "budget caps steps");
        assert_eq!(s.status(), SessionStatus::Finished);
        assert!(s.recommendation().is_some());
        assert!(s.advance(1).is_err(), "finished session refuses advance");
        let _ = std::fs::remove_dir_all(r.root());
    }

    #[test]
    fn split_streams_make_interleaving_irrelevant() {
        // One session advanced 1+1+2 steps equals one advanced 4 at once.
        let r = repo("interleave");
        let mut a = LiveSession::create(&r, meta(&r, 9, 4, "random"), None, 16).unwrap();
        a.advance(1).unwrap();
        a.advance(1).unwrap();
        a.advance(2).unwrap();

        let mut m2 = meta(&r, 9, 4, "random");
        m2.id = r.next_id().unwrap();
        let mut b = LiveSession::create(&r, m2, None, 16).unwrap();
        b.advance(4).unwrap();

        let ja = serde_json::to_string(a.history()).unwrap();
        let jb = serde_json::to_string(b.history()).unwrap();
        assert_eq!(ja, jb);
        let _ = std::fs::remove_dir_all(r.root());
    }

    #[test]
    fn cancel_is_terminal_and_durable() {
        let r = repo("cancel");
        let mut s = LiveSession::create(&r, meta(&r, 1, 10, "random"), None, 16).unwrap();
        s.advance(2).unwrap();
        s.cancel().unwrap();
        assert!(s.cancel().is_err());
        assert!(s.advance(1).is_err());

        let m = r.read_meta(SessionId::new(1)).unwrap();
        let back = LiveSession::recover(&r, m, 16).unwrap();
        assert_eq!(back.status(), SessionStatus::Cancelled);
        assert_eq!(back.history().len(), 3);
        let _ = std::fs::remove_dir_all(r.root());
    }

    #[test]
    fn eval_seed_spreads_steps() {
        let a = eval_seed(42, 0);
        let b = eval_seed(42, 1);
        let c = eval_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(eval_seed(42, 0), a, "pure function");
    }
}
