//! The traced run's instruments: an in-process replica of the daemon's
//! session step machine with a span around every call into a layer.
//!
//! [`Mirror`] repeats `LiveSession`'s create / advance / finish / recover
//! logic (drift detection off, as every benchmark session runs) using only
//! the layers' public functions, and times each call: `Tuner::propose`,
//! `observe` and `recommend`, `Objective::evaluate`, `WalSink::append`,
//! the snapshot writers, `WalSink::wait_durable` and
//! `SessionRepository::recover_session`. Its histories and
//! recommendations are checked byte for byte against the daemon's, so
//! the breakdown describes the same work the untraced run timed.

use autotune_core::{
    history_to_csv, History, Objective, Observation, Recommendation, SessionId, Tuner,
    TuningContext,
};
use autotune_serve::repo::{SessionMeta, SessionRepository};
use autotune_serve::session::eval_seed;
use autotune_serve::spec::{build_objective, build_tuner, SessionSpec};
use autotune_serve::wal::{self, SessionStatus, Snapshot, WalRecord, WalSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// Accumulated span times (microseconds) and counts of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// `Tuner::propose`.
    pub propose_us: f64,
    /// `Tuner::observe`.
    pub observe_us: f64,
    /// `Tuner::recommend`.
    pub recommend_us: f64,
    /// `Objective::evaluate` (with its `seek`).
    pub evaluate_us: f64,
    /// `wal::encode_record`, timed by a separate call; the same encoding
    /// is part of every direct append, so it is not added to coverage.
    pub encode_us: f64,
    /// `WalSink::append`.
    pub append_us: f64,
    /// Snapshot assembly plus `wal::write_snapshot(_deferred)`.
    pub snapshot_us: f64,
    /// `WalSink::wait_durable` at each request's commit point.
    pub wait_durable_us: f64,
    /// `SessionRepository::recover_session`.
    pub read_us: f64,
    /// The session layer's dedup scan: each proposal is looked up in the
    /// history so a repeated configuration is not evaluated again.
    pub dedup_us: f64,
    /// Proposals made (live and during replay).
    pub proposals: u64,
    /// Live proposals that repeated an already measured configuration.
    pub dedup_hits: u64,
    /// Live proposals (the dedup ratio's base).
    pub live_proposals: u64,
    /// Recommendations computed.
    pub recommends: u64,
    /// Records appended.
    pub records: u64,
    /// Framed bytes of those records.
    pub record_bytes: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Serialized bytes of those snapshots.
    pub snapshot_bytes: u64,
    /// Tuner-driven evaluations run (the probe excluded).
    pub evaluations: u64,
    /// Observations restored by recovery.
    pub recovered: u64,
    /// Full surrogate fits, summed over sessions at their finish.
    pub fits: u64,
    /// Largest active surrogate size over sessions.
    pub active_max: usize,
    /// [`Spans::layer_sum_us`] once recovery (read and replay) is done,
    /// before any resumed step.
    pub recovery_us: f64,
}

impl Spans {
    /// Sum of the layer spans inside the step machine — what
    /// `trace.coverage` compares with the session layer's own time.
    pub fn layer_sum_us(&self) -> f64 {
        self.propose_us
            + self.observe_us
            + self.recommend_us
            + self.evaluate_us
            + self.append_us
            + self.snapshot_us
            + self.read_us
            + self.dedup_us
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64() * 1e6;
    out
}

/// One session replicated in-process.
pub struct Mirror {
    id: SessionId,
    dir: PathBuf,
    spec: SessionSpec,
    objective: Box<dyn Objective + Send>,
    tuner: Box<dyn Tuner + Send>,
    ctx: TuningContext,
    rng: StdRng,
    history: History,
    /// `LiveSession` keeps the current drift epoch's slice beside the
    /// full history; without drift it is an identical copy. The replica
    /// keeps it too, so its memory use matches.
    epoch_history: History,
    status: SessionStatus,
    recommendation: Option<Recommendation>,
    snapshot_every: u64,
    snapshot_seq: u64,
    sink: WalSink,
    journal_pending: u64,
    last_ticket: u64,
}

impl Mirror {
    fn build(
        repo: &SessionRepository,
        meta: &SessionMeta,
        sink: WalSink,
        snapshot_every: usize,
    ) -> Mirror {
        let objective = build_objective(&meta.spec).expect("objective");
        let tuner = build_tuner(&meta.spec, None).expect("tuner");
        let ctx = TuningContext {
            space: objective.space().clone(),
            profile: objective.profile(),
        };
        Mirror {
            id: meta.id,
            dir: repo.session_dir(meta.id),
            spec: meta.spec.clone(),
            objective,
            tuner,
            ctx,
            rng: StdRng::seed_from_u64(meta.spec.seed),
            history: History::new(),
            epoch_history: History::new(),
            status: SessionStatus::Running,
            recommendation: None,
            snapshot_every: snapshot_every as u64,
            snapshot_seq: 0,
            sink,
            journal_pending: 0,
            last_ticket: 0,
        }
    }

    /// `LiveSession::create_with`: writes the session's metadata and
    /// records the baseline probe.
    pub fn create(
        repo: &SessionRepository,
        meta: &SessionMeta,
        sink: WalSink,
        snapshot_every: usize,
        spans: &mut Spans,
    ) -> Mirror {
        let mut m = Mirror::build(repo, meta, sink, snapshot_every);
        repo.create_session(meta, m.sink.durability())
            .expect("create session dir");
        let probe = m.evaluate_default(0, spans);
        m.apply(probe, spans);
        m
    }

    /// `LiveSession::recover_with`: reads the session's files, folds in
    /// its journal tail and replays every observation through the tuner
    /// (running sessions only).
    pub fn recover(
        repo: &SessionRepository,
        meta: &SessionMeta,
        tail: Vec<WalRecord>,
        sink: WalSink,
        snapshot_every: usize,
        spans: &mut Spans,
    ) -> Mirror {
        let mut m = Mirror::build(repo, meta, sink, snapshot_every);
        let mut recovered =
            timed(&mut spans.read_us, || repo.recover_session(meta.id)).expect("recover session");
        for record in tail {
            wal::apply_record(&mut recovered, record);
        }
        let replay = recovered.status == SessionStatus::Running;
        spans.recovered += recovered.observations.len() as u64;
        for (i, obs) in recovered.observations.into_iter().enumerate() {
            if replay {
                if i > 0 {
                    let _ = timed(&mut spans.propose_us, || {
                        m.tuner.propose(&m.ctx, &m.epoch_history, &mut m.rng)
                    });
                    spans.proposals += 1;
                }
                timed(&mut spans.observe_us, || m.tuner.observe(&obs));
            }
            m.epoch_history.push(obs.clone());
            m.history.push(obs);
        }
        m.status = recovered.status;
        m.recommendation = recovered.recommendation;
        m.snapshot_seq = recovered.snapshot_seq;
        m
    }

    /// Swaps the sink, as the daemon does once startup is done.
    pub fn set_sink(&mut self, sink: WalSink) {
        self.sink = sink;
        self.journal_pending = 0;
        self.last_ticket = 0;
    }

    fn evaluate_default(&mut self, step: u64, spans: &mut Spans) -> Observation {
        let default = self.ctx.space.default_config();
        let mut rng = StdRng::seed_from_u64(eval_seed(self.spec.seed, step));
        timed(&mut spans.evaluate_us, || {
            self.objective.seek(step);
            self.objective.evaluate(&default, &mut rng)
        })
    }

    fn log(&mut self, record: &WalRecord, spans: &mut Spans) {
        let frame = timed(&mut spans.encode_us, || wal::encode_record(record)).expect("encode");
        spans.record_bytes += frame.len() as u64;
        spans.records += 1;
        let ticket = timed(&mut spans.append_us, || {
            self.sink.append(&self.dir, self.id, record)
        })
        .expect("append");
        self.last_ticket = ticket;
        if matches!(self.sink, WalSink::Group(_)) {
            self.journal_pending += 1;
        }
    }

    fn apply(&mut self, obs: Observation, spans: &mut Spans) {
        let seq = self.history.len() as u64;
        self.log(
            &WalRecord::Obs {
                seq,
                obs: obs.clone(),
            },
            spans,
        );
        timed(&mut spans.observe_us, || self.tuner.observe(&obs));
        self.epoch_history.push(obs.clone());
        self.history.push(obs);
        if self.history.len() as u64 - self.snapshot_seq >= self.snapshot_every {
            self.write_snapshot(spans);
        }
    }

    /// `LiveSession::write_snapshot`.
    pub fn write_snapshot(&mut self, spans: &mut Spans) {
        let t = Instant::now();
        let snapshot = Snapshot {
            seq: self.history.len() as u64,
            history: self.history.clone(),
            status: self.status,
            recommendation: self.recommendation.clone(),
            drift_events: Vec::new(),
        };
        let final_path = self.dir.join(wal::SNAPSHOT_FILE);
        let mut written = final_path.clone();
        let mut deferred = false;
        if let WalSink::Group(group) = &self.sink {
            deferred = wal::write_snapshot_deferred(
                &self.dir,
                &snapshot,
                group,
                self.journal_pending,
                self.last_ticket,
            )
            .expect("deferred snapshot");
            written = self
                .dir
                .join(format!("{}.tmp-{}", wal::SNAPSHOT_FILE, self.last_ticket));
        }
        if !deferred {
            wal::write_snapshot(&self.dir, &snapshot, self.sink.durability()).expect("snapshot");
            self.sink
                .mark_clean_at(self.journal_pending, self.last_ticket);
            written = final_path.clone();
        }
        self.snapshot_seq = self.history.len() as u64;
        self.journal_pending = 0;
        spans.snapshot_us += t.elapsed().as_secs_f64() * 1e6;
        spans.snapshots += 1;
        // Sized from disk after the span. A staged snapshot may already
        // have been landed under the final name by the group committer.
        let size = std::fs::metadata(&written)
            .or_else(|_| std::fs::metadata(&final_path))
            .expect("snapshot on disk")
            .len();
        spans.snapshot_bytes += size;
    }

    /// `LiveSession::advance`.
    pub fn advance(&mut self, steps: usize, spans: &mut Spans) -> usize {
        let mut ran = 0;
        while ran < steps && self.evaluations() < self.spec.budget {
            let config = timed(&mut spans.propose_us, || {
                self.tuner
                    .propose(&self.ctx, &self.epoch_history, &mut self.rng)
            });
            spans.proposals += 1;
            spans.live_proposals += 1;
            let prev = timed(&mut spans.dedup_us, || {
                self.epoch_history
                    .all()
                    .iter()
                    .find(|o| o.config == config)
                    .cloned()
            });
            let obs = match prev {
                Some(prev) => {
                    spans.dedup_hits += 1;
                    prev
                }
                None => {
                    let step = self.history.len() as u64;
                    let mut rng = StdRng::seed_from_u64(eval_seed(self.spec.seed, step));
                    timed(&mut spans.evaluate_us, || {
                        self.objective.seek(step);
                        self.objective.evaluate(&config, &mut rng)
                    })
                }
            };
            self.apply(obs, spans);
            spans.evaluations += 1;
            ran += 1;
        }
        if self.evaluations() >= self.spec.budget {
            let rec = timed(&mut spans.recommend_us, || {
                self.tuner.recommend(&self.ctx, &self.epoch_history)
            });
            spans.recommends += 1;
            self.log(
                &WalRecord::Finished {
                    recommendation: rec.clone(),
                },
                spans,
            );
            self.recommendation = Some(rec);
            self.status = SessionStatus::Finished;
            self.write_snapshot(spans);
            if let Some(stats) = self.tuner.surrogate_stats() {
                spans.fits += stats.fits;
                spans.active_max = spans.active_max.max(stats.active);
            }
        }
        ran
    }

    /// The commit point of a request: await the newest record's ticket.
    pub fn wait_durable(&self, spans: &mut Spans) {
        timed(&mut spans.wait_durable_us, || {
            self.sink.wait_durable(self.last_ticket)
        })
        .expect("wait durable");
    }

    /// Tuner-driven evaluations so far.
    pub fn evaluations(&self) -> usize {
        self.history.len().saturating_sub(1)
    }

    /// Lifecycle state.
    pub fn status(&self) -> SessionStatus {
        self.status
    }

    /// History in the daemon's CSV export format.
    pub fn csv(&self) -> String {
        history_to_csv(&self.history, &self.ctx.space)
    }

    /// Final recommendation as JSON (`null` while running).
    pub fn recommendation_json(&self) -> String {
        serde_json::to_string(&self.recommendation).expect("recommendation json")
    }
}
