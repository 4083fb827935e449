//! Session persistence: a checksum-framed write-ahead log, an append-only
//! snapshot log, and a shared group-commit journal.
//!
//! On-disk layout of one session directory (`<data-dir>/s-000042/`):
//!
//! * `meta.json` — immutable [`SessionMeta`](crate::repo::SessionMeta):
//!   spec, warm source, creation time. Written once at create.
//! * `wal.jsonl` — one framed [`WalRecord`] per line, appended before the
//!   in-memory state advances. Each line carries an explicit length and
//!   CRC32 so a torn or corrupted record is *detected*, never silently
//!   applied: recovery stops cleanly at the last valid record.
//! * `snapshot.json` — the snapshot log: one framed compaction frame per
//!   line, appended every [`DEFAULT_SNAPSHOT_EVERY`] observations and at
//!   finish or cancel. A frame holds the observations logged since the
//!   previous frame plus a small header (observation count, status, the
//!   recommendation once finished, new drift events); older frames are
//!   never rewritten. After the append the WAL is truncated (or deleted
//!   outright once the session is terminal — log-only recovery is a
//!   supported state). Recovery = snapshot log ⊕ WAL tail ⊕ journal tail.
//!
//! The daemon additionally keeps one shared `journal.walj` at the
//! repository root (see [`crate::group`]): in [`Durability::Fsync`] mode
//! every record is group-committed there with a single fsync per batch,
//! so the per-session WAL writes can stay buffered. Journal frames wrap
//! the same [`WalRecord`] payloads tagged with their session id; recovery
//! demultiplexes them and deduplicates against the per-session log by
//! sequence number.
//!
//! ## Frame format
//!
//! ```text
//! <len:08x> <crc32:08x> <payload-json>\n
//! ```
//!
//! `len` is the payload byte length, `crc32` the IEEE CRC32 of the
//! payload. A frame is valid only if the payload length and checksum both
//! match; CRC32 detects every single-byte (indeed every ≤32-bit burst)
//! error, so flipping any byte of a record — header, payload, or the
//! newline — invalidates exactly that frame. Recovery scans frames in
//! order and stops at the first invalid one, reporting what it found in
//! [`Recovered::corruption`] instead of erroring: everything before the
//! bad frame is trusted (each frame is independently checksummed),
//! everything at and after it is not. The WAL, the journal and the
//! snapshot log all use this codec.
//!
//! ## The snapshot log
//!
//! A compaction reads the log's last frame (a read from the end of the
//! file) to learn how many observations the log already holds, and
//! appends one frame with the rest. Compacting twice at the same point
//! appends nothing. When the file does not end in a valid frame — a
//! snapshot written as a single JSON object before the log existed, or a
//! frame torn by a crash — the compaction instead rewrites the whole
//! history as a one-frame log (tmp + rename), once.
//!
//! A torn or corrupt frame makes recovery fall back to the frames before
//! it. The records the lost frames covered are then either still in the
//! WAL or journal (a crash mid-append happens before the WAL truncation
//! and before the journal releases them) or, after real corruption, past
//! a *gap*: a record whose sequence number lies beyond the recovered
//! history. Recovery ignores every record from a gap on and reports it;
//! observations are deterministic in their index, so the session
//! recomputes what was lost and ends byte-identical to an uninterrupted
//! run. [`crate::session::LiveSession`] rewrites a log it recovered with
//! corruption, so later frames never follow an invalid one.
//!
//! ## Durability modes
//!
//! * [`Durability::Flush`] (default): appends are flushed to the OS
//!   before the record is acknowledged. Survives a **process** crash
//!   (kill -9); an OS crash or power loss may lose the buffered tail.
//! * [`Durability::Fsync`]: appends are fsynced (`fdatasync`) before
//!   acknowledgement — via the shared journal under group commit, or
//!   directly on the session WAL otherwise — and a compaction frame is
//!   fdatasynced before the WAL is truncated or the journal records it
//!   covers are released. Survives an **OS** crash.
//!
//! Records carry explicit sequence numbers so a WAL or journal tail that
//! predates the latest frame (possible if a crash lands between the
//! frame append and the WAL truncation) is deduplicated instead of
//! double-applied.

use crate::drift::DriftEvent;
use crate::{ServeError, ServeResult};
use autotune_core::{History, Observation, Recommendation, SessionId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Snapshot-compaction interval, in observations.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 16;

/// WAL file name inside a session directory.
pub const WAL_FILE: &str = "wal.jsonl";
/// Snapshot file name inside a session directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// Shared group-commit journal at the repository root.
pub const JOURNAL_FILE: &str = "journal.walj";

/// When a record must be durable relative to its acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Durability {
    /// Flush to the OS; survives process crash, not OS crash (default).
    Flush,
    /// fdatasync before acknowledging; survives OS crash.
    Fsync,
}

impl Durability {
    /// Lowercase label used in flags and `/metrics`.
    pub fn label(self) -> &'static str {
        match self {
            Durability::Flush => "flush",
            Durability::Fsync => "fsync",
        }
    }

    /// Parses the `--durability` flag vocabulary.
    pub fn parse(s: &str) -> ServeResult<Durability> {
        match s {
            "flush" => Ok(Durability::Flush),
            "fsync" => Ok(Durability::Fsync),
            other => Err(ServeError::BadRequest(format!(
                "unknown durability '{other}' (expected flush|fsync)"
            ))),
        }
    }
}

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionStatus {
    /// Accepting `advance` requests.
    Running,
    /// Budget exhausted; recommendation available.
    Finished,
    /// Cancelled by the client; history retained, never advanced again.
    Cancelled,
}

impl SessionStatus {
    /// Lowercase label used in JSON status fields.
    pub fn label(self) -> &'static str {
        match self {
            SessionStatus::Running => "running",
            SessionStatus::Finished => "finished",
            SessionStatus::Cancelled => "cancelled",
        }
    }

    /// Whether the session can still advance.
    pub fn is_terminal(self) -> bool {
        !matches!(self, SessionStatus::Running)
    }
}

/// One durable event in a session's life.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalRecord {
    /// Observation number `seq` (0 is the baseline probe of the vendor
    /// default configuration).
    Obs {
        /// Zero-based observation index.
        seq: u64,
        /// The measured observation.
        obs: Observation,
    },
    /// Budget exhausted; the tuner's final recommendation.
    Finished {
        /// The recommendation computed at finish time.
        recommendation: Recommendation,
    },
    /// Client cancelled the session.
    Cancelled,
    /// Workload drift detected: the tuner was reset and re-warm-started,
    /// and the observation at `event.at_seq` (logged next) is the new
    /// epoch's baseline re-probe. Logged *before* that observation so
    /// recovery applies the reset at exactly the live position.
    Drift {
        /// The drift event (trigger statistic, new epoch, re-matched
        /// warm source).
        event: DriftEvent,
    },
}

/// One frame of the shared journal: a [`WalRecord`] tagged with its
/// session, so a single file can carry the whole fleet's appends.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Which session the record belongs to.
    pub session: SessionId,
    /// The record itself.
    pub record: WalRecord,
}

/// Compacted state of a session: everything up to `seq` observations —
/// what a compaction hands to [`write_snapshot`], which appends only the
/// part the snapshot log does not hold yet. It is also the format of a
/// legacy `snapshot.json` (one JSON object, written whole before the log
/// existed), which recovery still reads.
///
/// `Deserialize` is hand-written: snapshots written before the drift
/// subsystem carry no `drift_events` key and must keep parsing (reading
/// as an empty list), and the vendored serde derive has no field
/// defaults.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    /// Number of observations folded into this snapshot.
    pub seq: u64,
    /// Full observation history at compaction time.
    pub history: History,
    /// Session status at compaction time.
    pub status: SessionStatus,
    /// Final recommendation, once the session finished.
    pub recommendation: Option<Recommendation>,
    /// Drift events up to compaction time, oldest first.
    pub drift_events: Vec<DriftEvent>,
}

impl Deserialize for Snapshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Snapshot"))?;
        let drift_events = match map.iter().find(|(k, _)| k == "drift_events") {
            Some((_, dv)) => Vec::<DriftEvent>::from_value(dv)?,
            None => Vec::new(), // pre-drift snapshot
        };
        Ok(Snapshot {
            seq: serde::__field(map, "seq", "Snapshot")?,
            history: serde::__field(map, "history", "Snapshot")?,
            status: serde::__field(map, "status", "Snapshot")?,
            recommendation: serde::__field(map, "recommendation", "Snapshot")?,
            drift_events,
        })
    }
}

/// One frame of the snapshot log: what a compaction adds to the frames
/// before it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Frame {
    /// Observations the log holds once this frame is applied.
    seq: u64,
    /// Session status at compaction time.
    status: SessionStatus,
    /// Final recommendation, once the session finished.
    recommendation: Option<Recommendation>,
    /// Drift events the earlier frames do not carry, oldest first.
    drift_events: Vec<DriftEvent>,
    /// The observations logged since the previous frame.
    observations: Vec<Observation>,
}

impl Frame {
    /// The frame that brings a log holding `from` observations up to
    /// `snapshot`.
    fn after(snapshot: &Snapshot, from: u64) -> Frame {
        let observations = snapshot.history.all()[from as usize..].to_vec();
        Frame {
            seq: from + observations.len() as u64,
            status: snapshot.status,
            recommendation: snapshot.recommendation.clone(),
            drift_events: snapshot
                .drift_events
                .iter()
                .filter(|e| e.at_seq >= from)
                .cloned()
                .collect(),
            observations,
        }
    }
}

/// State reassembled from disk: the snapshot log (if any) plus the WAL
/// records that follow it.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Observations in order, snapshot log ⊕ WAL tail, duplicates
    /// dropped.
    pub observations: Vec<Observation>,
    /// Status after applying every surviving record.
    pub status: SessionStatus,
    /// Recommendation if a `Finished` record (or frame) carried one.
    pub recommendation: Option<Recommendation>,
    /// Observation count covered by the snapshot log's last valid frame
    /// (0 when none) — the starting point for the next compaction.
    pub snapshot_seq: u64,
    /// Drift events in order of occurrence (`at_seq` ascending), from the
    /// snapshot log plus any surviving WAL/journal records.
    pub drift_events: Vec<DriftEvent>,
    /// Set when a scan stopped at an invalid frame (torn write or
    /// bit-flip) or a record followed a gap. Recovery is still sound —
    /// every record before the bad frame was independently checksummed —
    /// but the event is surfaced so the daemon can log it instead of
    /// hiding data loss.
    pub corruption: Option<String>,
    /// Whether a record skipped past the recovered history; every later
    /// record is ignored.
    gap: bool,
}

impl Recovered {
    /// Adds a corruption note, after any earlier one.
    fn note(&mut self, what: String) {
        self.corruption = Some(match self.corruption.take() {
            Some(earlier) => format!("{earlier}; {what}"),
            None => what,
        });
    }

    /// Records a drift event unless one at the same index is already
    /// known (a frame, the WAL and the journal may each carry it).
    fn add_drift(&mut self, event: DriftEvent) {
        if self.drift_events.iter().all(|e| e.at_seq != event.at_seq) {
            self.drift_events.push(event);
        }
    }

    /// Stops recovery at a record for index `seq`, past the recovered
    /// history.
    fn open_gap(&mut self, seq: u64) {
        self.gap = true;
        let next = self.observations.len();
        self.note(format!(
            "a record for observation {seq} follows a gap at {next}; it and every later record were ignored"
        ));
    }
}

// ---------------------------------------------------------------------------
// CRC32 + frame codec
// ---------------------------------------------------------------------------

/// IEEE CRC32 lookup tables for slicing-by-16, built at compile time:
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table, and
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so sixteen independent lookups fold sixteen input bytes per step.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC32 of `bytes` (the zlib/gzip polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        // The running CRC folds into the first four bytes; byte j of the
        // step then sits 15 - j bytes from its end.
        let mut word = [0u8; 16];
        word.copy_from_slice(c);
        for (b, x) in word.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= x;
        }
        crc = word
            .iter()
            .enumerate()
            .fold(0, |acc, (j, &b)| acc ^ t[15 - j][b as usize]);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Frames one payload as a checksummed WAL line.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(format!("{:08x} {:08x} ", payload.len(), crc32(payload)).as_bytes());
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// Validates one WAL line (without its trailing newline) and returns the
/// payload. `None` means the frame is torn or corrupt.
pub fn decode_frame(line: &str) -> Option<&str> {
    // "llllllll cccccccc payload" — 18 header bytes before the payload.
    let (len_hex, rest) = (line.get(..8)?, line.get(8..)?);
    let rest = rest.strip_prefix(' ')?;
    let (crc_hex, rest) = (rest.get(..8)?, rest.get(8..)?);
    let payload = rest.strip_prefix(' ')?;
    let len = usize::from_str_radix(len_hex, 16).ok()?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    if payload.len() != len || crc32(payload.as_bytes()) != crc {
        return None;
    }
    Some(payload)
}

/// Serializes a record to its framed WAL line.
pub fn encode_record(record: &WalRecord) -> ServeResult<Vec<u8>> {
    let json = serde_json::to_string(record)
        .map_err(|e| ServeError::Corrupt(format!("wal encode: {e}")))?;
    Ok(encode_frame(json.as_bytes()))
}

/// Serializes a session-tagged record to its framed journal line.
pub fn encode_journal_entry(session: SessionId, record: &WalRecord) -> ServeResult<Vec<u8>> {
    let entry = JournalEntry {
        session,
        record: record.clone(),
    };
    let json = serde_json::to_string(&entry)
        .map_err(|e| ServeError::Corrupt(format!("journal encode: {e}")))?;
    Ok(encode_frame(json.as_bytes()))
}

/// The frame at the start of `bytes`: its validated payload and the
/// number of bytes it spans, newline included (a final frame may lack
/// its newline). The header's length says where the frame ends, so
/// finding the end costs no scan of the payload. `None` means the frame
/// is torn or corrupt; corruption can make it invalid UTF-8, which counts
/// the same.
fn next_frame(bytes: &[u8]) -> Option<(&str, usize)> {
    let len_hex = std::str::from_utf8(bytes.get(..8)?).ok()?;
    let end = usize::from_str_radix(len_hex, 16).ok()?.checked_add(18)?;
    if !matches!(bytes.get(end), None | Some(b'\n')) {
        return None;
    }
    let payload = decode_frame(std::str::from_utf8(bytes.get(..end)?).ok()?)?;
    Some((payload, (end + 1).min(bytes.len())))
}

/// Scans frames, yielding parsed payloads until the first invalid frame
/// (or the first payload `parse` rejects); returns the parsed values and
/// a corruption note when the scan stopped early. Blank lines between
/// frames are skipped.
fn scan_frames<'a, T, F>(bytes: &'a [u8], what: &str, mut parse: F) -> (Vec<T>, Option<String>)
where
    F: FnMut(&'a str) -> Option<T>,
{
    let mut out = Vec::new();
    let mut rest = bytes;
    let mut frame = 0;
    loop {
        while let Some((b'\n', tail)) = rest.split_first() {
            rest = tail;
        }
        if rest.is_empty() {
            return (out, None);
        }
        frame += 1;
        let Some((payload, used)) = next_frame(rest) else {
            return (
                out,
                Some(format!(
                    "{what} frame {frame} failed checksum validation; recovery stopped at the last valid record"
                )),
            );
        };
        let Some(value) = parse(payload) else {
            return (
                out,
                Some(format!(
                    "{what} frame {frame} carries undecodable payload; recovery stopped at the last valid record"
                )),
            );
        };
        out.push(value);
        rest = &rest[used..];
    }
}

// ---------------------------------------------------------------------------
// Direct append + sink
// ---------------------------------------------------------------------------

/// Appends one record to the session's WAL and makes it durable per
/// `durability` before returning.
pub fn append_record(dir: &Path, record: &WalRecord, durability: Durability) -> ServeResult<()> {
    let frame = encode_record(record)?;
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(WAL_FILE))?;
    f.write_all(&frame)?;
    f.flush()?;
    if durability == Durability::Fsync {
        f.sync_data()?;
    }
    Ok(())
}

/// Where a live session sends its WAL appends: directly to its own file,
/// or through the daemon's shared group-commit writer.
#[derive(Clone)]
pub enum WalSink {
    /// Open + write + flush (+ fsync) per record, in the caller's thread.
    Direct(Durability),
    /// Enqueue into the shared group-commit journal (fsync durability);
    /// the append returns a ticket, durability is awaited at commit
    /// points via [`WalSink::wait_durable`].
    Group(Arc<crate::group::GroupCommitWal>),
}

impl WalSink {
    /// The durability level records appended through this sink reach
    /// (once awaited, for the group sink).
    pub fn durability(&self) -> Durability {
        match self {
            WalSink::Direct(d) => *d,
            WalSink::Group(_) => Durability::Fsync,
        }
    }

    /// Appends one record and returns its durability ticket. The direct
    /// sink is synchronous (the record is on disk at the promised
    /// durability when this returns; ticket 0). The group sink enqueues
    /// and returns immediately — callers promise durability only after
    /// [`WalSink::wait_durable`] on the ticket.
    pub fn append(&self, dir: &Path, session: SessionId, record: &WalRecord) -> ServeResult<u64> {
        match self {
            WalSink::Direct(d) => append_record(dir, record, *d).map(|()| 0),
            WalSink::Group(g) => g.append(session, record),
        }
    }

    /// Blocks until `ticket` is durable. No-op for direct sinks.
    pub fn wait_durable(&self, ticket: u64) -> ServeResult<()> {
        match self {
            WalSink::Direct(_) => Ok(()),
            WalSink::Group(g) => g.wait_durable(ticket),
        }
    }

    /// Tells the sink that `n` previously appended records — all with
    /// tickets at or below `ticket` — are covered by a durable snapshot
    /// (journal-retention bookkeeping, applied once the ticket is synced;
    /// no-op for direct sinks).
    pub fn mark_clean_at(&self, n: u64, ticket: u64) {
        if let WalSink::Group(g) = self {
            g.mark_clean_at(n, ticket);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot log
// ---------------------------------------------------------------------------

/// How many bytes from the end of the snapshot log the first read for its
/// last frame covers; doubled until the whole frame is in view. A frame
/// of 16 simulator observations is about 18 KiB.
const TAIL_WINDOW: u64 = 32 * 1024;

/// The end of a snapshot log, as a compaction sees it.
enum Tail {
    /// No frames yet: the file is missing or empty.
    Empty,
    /// The log ends with this valid frame.
    Frame(Frame),
    /// The file does not end with a valid frame: a legacy single-object
    /// snapshot, or a frame torn by a crash.
    Unusable,
}

/// Reads the last frame of the snapshot log at `path`, from the end of
/// the file: a frame's payload holds no raw newline, so the frame starts
/// after the last newline before the final one.
fn read_tail(path: &Path) -> ServeResult<Tail> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Tail::Empty),
        Err(e) => return Err(e.into()),
    };
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(Tail::Empty);
    }
    let mut window = TAIL_WINDOW.min(len);
    loop {
        let mut buf = vec![0u8; window as usize];
        file.seek(SeekFrom::Start(len - window))?;
        file.read_exact(&mut buf)?;
        let Some((&b'\n', body)) = buf.split_last() else {
            return Ok(Tail::Unusable);
        };
        let start = match body.iter().rposition(|&b| b == b'\n') {
            Some(i) => i + 1,
            None if window < len => {
                window = (window * 2).min(len);
                continue;
            }
            None => 0,
        };
        let frame = std::str::from_utf8(&body[start..])
            .ok()
            .and_then(decode_frame)
            .and_then(|payload| serde_json::from_str::<Frame>(payload).ok());
        return Ok(frame.map_or(Tail::Unusable, Tail::Frame));
    }
}

/// Appends the frame that brings the snapshot log up to `snapshot` and,
/// with `sync`, fdatasyncs the log — also when there was nothing new to
/// append, since an earlier append may still be unsynced. Returns `None`
/// when the log cannot be extended and must be rewritten instead;
/// otherwise whether the log had no frames before, so that its directory
/// entry may not be durable yet (synced here with `sync`).
fn append_frame(dir: &Path, snapshot: &Snapshot, sync: bool) -> ServeResult<Option<bool>> {
    let path = dir.join(SNAPSHOT_FILE);
    let last = match read_tail(&path)? {
        Tail::Empty => None,
        Tail::Frame(last) if last.seq <= snapshot.history.len() as u64 => Some(last),
        Tail::Frame(_) | Tail::Unusable => return Ok(None),
    };
    let frame = Frame::after(snapshot, last.as_ref().map_or(0, |l| l.seq));
    let unchanged = last.as_ref().is_some_and(|l| l.status == frame.status)
        && frame.observations.is_empty()
        && frame.drift_events.is_empty();
    if unchanged && !sync {
        return Ok(Some(false));
    }
    let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
    if !unchanged {
        let json = serde_json::to_string(&frame)
            .map_err(|e| ServeError::Corrupt(format!("snapshot encode: {e}")))?;
        file.write_all(&encode_frame(json.as_bytes()))?;
    }
    let created = last.is_none();
    if sync {
        file.sync_data()?;
        if created {
            sync_dir(dir);
        }
    }
    Ok(Some(created))
}

/// Replaces the snapshot log with a single frame holding the whole
/// history (tmp + rename). With `sync` the tmp file is fdatasynced before
/// the rename and the directory entry after it, so the new log meets the
/// same durability bar as the records it covers.
fn rewrite_log(dir: &Path, snapshot: &Snapshot, sync: bool) -> ServeResult<()> {
    let json = serde_json::to_string(&Frame::after(snapshot, 0))
        .map_err(|e| ServeError::Corrupt(format!("snapshot encode: {e}")))?;
    let tmp = dir.join("snapshot.json.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&encode_frame(json.as_bytes()))?;
        if sync {
            f.sync_data()?;
        }
    }
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    if sync {
        sync_dir(dir);
    }
    Ok(())
}

/// Persists a directory's entries. Best effort: not every filesystem
/// lets you fsync a directory handle.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Drops the WAL records a durable compaction covers: truncates the WAL,
/// or deletes it once the session is terminal (the snapshot log then
/// holds the session's final state).
pub(crate) fn release_wal(dir: &Path, terminal: bool) -> std::io::Result<()> {
    if !terminal {
        File::create(dir.join(WAL_FILE))?;
        return Ok(());
    }
    match fs::remove_file(dir.join(WAL_FILE)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The compaction step: appends to the snapshot log the frame holding
/// everything `snapshot` adds to it (nothing when it adds nothing), then
/// truncates the WAL — or deletes it once the session is terminal. In
/// fsync mode the log is fdatasynced before the WAL is touched, so the
/// frame meets the same durability bar as the records it replaces. A log
/// that does not end in a valid frame (a legacy single-object snapshot,
/// or a torn append) is rewritten whole, once.
///
/// Crash windows are safe in both orders: before the append lands the
/// previous frames + full WAL still recover; between append and truncate
/// the WAL tail duplicates frame records, which recovery drops by
/// sequence number.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot, durability: Durability) -> ServeResult<()> {
    let sync = durability == Durability::Fsync;
    if append_frame(dir, snapshot, sync)?.is_none() {
        rewrite_log(dir, snapshot, sync)?;
    }
    release_wal(dir, snapshot.status.is_terminal())?;
    Ok(())
}

/// Replaces the snapshot log with one frame holding all of `snapshot`,
/// then releases the WAL as [`write_snapshot`] does: the repair after a
/// recovery that met corruption, so no later frame follows an invalid
/// one.
pub(crate) fn rewrite_snapshot(
    dir: &Path,
    snapshot: &Snapshot,
    durability: Durability,
) -> ServeResult<()> {
    rewrite_log(dir, snapshot, durability == Durability::Fsync)?;
    release_wal(dir, snapshot.status.is_terminal())?;
    Ok(())
}

/// Group-mode compaction: appends the frame in the caller's thread
/// (buffered write only — no sync) and hands durability to the group
/// committer, which fdatasyncs the log and releases `covered` journal
/// records once `ticket` is durable. The session worker never blocks on
/// a snapshot sync, and where frames begin never depends on when the
/// committer runs. No WAL file is touched: group-mode sessions log
/// through the shared journal, whose records stay live until the
/// committer has synced the frame. The rare whole-log rewrite (see
/// [`write_snapshot`]) is synced here.
///
/// The appended frame may reach the disk before the journal records it
/// covers. That is safe: an observation is a pure function of its index,
/// and recovery deduplicates the journal against the log by sequence
/// number.
///
/// Returns false when the committer has already shut down; the caller
/// must fall back to [`write_snapshot`], which finds the frame in place,
/// appends nothing, and syncs the log.
pub fn write_snapshot_deferred(
    dir: &Path,
    snapshot: &Snapshot,
    group: &crate::group::GroupCommitWal,
    covered: u64,
    ticket: u64,
) -> ServeResult<bool> {
    let created = match append_frame(dir, snapshot, false)? {
        Some(created) => created,
        None => {
            rewrite_log(dir, snapshot, true)?;
            false
        }
    };
    Ok(group.defer_snapshot(
        dir.to_path_buf(),
        covered,
        ticket,
        snapshot.status.is_terminal(),
        created,
    ))
}

/// Current size of the session's WAL in bytes (0 when absent) — surfaced
/// on `/metrics` as a compaction-health signal.
pub fn wal_bytes(dir: &Path) -> u64 {
    fs::metadata(dir.join(WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Reassembles session state from the snapshot log + WAL.
///
/// Each scan stops at the first frame that fails length/CRC validation
/// — a torn tail from a crash and a flipped bit mid-file look the same to
/// the reader, and in both cases nothing at or past the bad frame can be
/// trusted. The event is reported in [`Recovered::corruption`] rather
/// than raised as an error: every surviving record was independently
/// checksummed, so the prefix is sound. Only a legacy single-object
/// snapshot that fails to parse is an error.
pub fn recover(dir: &Path) -> ServeResult<Recovered> {
    let mut recovered = read_snapshot_log(&dir.join(SNAPSHOT_FILE))?;
    let wal_path = dir.join(WAL_FILE);
    if wal_path.exists() {
        let bytes = fs::read(&wal_path)?;
        let (records, corruption) = scan_frames(&bytes, "wal", |payload| {
            serde_json::from_str::<WalRecord>(payload).ok()
        });
        if let Some(note) = corruption {
            recovered.note(note);
        }
        for record in records {
            apply_record(&mut recovered, record);
        }
    }
    Ok(recovered)
}

/// Folds the snapshot log at `path` — its valid frames, in order — into
/// the starting state of recovery. A file that starts with `{` is a
/// legacy snapshot: one JSON [`Snapshot`] of the whole history.
fn read_snapshot_log(path: &Path) -> ServeResult<Recovered> {
    let mut recovered = Recovered {
        observations: Vec::new(),
        status: SessionStatus::Running,
        recommendation: None,
        snapshot_seq: 0,
        drift_events: Vec::new(),
        corruption: None,
        gap: false,
    };
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(recovered),
        Err(e) => return Err(e.into()),
    };
    if bytes.first() == Some(&b'{') {
        let legacy: Snapshot = std::str::from_utf8(&bytes)
            .map_err(|e| ServeError::Corrupt(format!("snapshot decode: {e}")))
            .and_then(|s| {
                serde_json::from_str(s)
                    .map_err(|e| ServeError::Corrupt(format!("snapshot decode: {e}")))
            })?;
        recovered.observations = legacy.history.into_observations();
        recovered.status = legacy.status;
        recovered.recommendation = legacy.recommendation;
        recovered.snapshot_seq = legacy.seq;
        recovered.drift_events = legacy.drift_events;
        return Ok(recovered);
    }
    let (payloads, mut corruption) = scan_frames(&bytes, "snapshot", Some);
    // One parse for all checksummed payloads: a JSON parse per frame
    // costs more than one over the same bytes. Only a payload that is
    // not a frame sends recovery to the per-frame parse, which finds it.
    let mut array = String::with_capacity(bytes.len() + 2);
    array.push('[');
    for (i, payload) in payloads.iter().enumerate() {
        if i > 0 {
            array.push(',');
        }
        array.push_str(payload);
    }
    array.push(']');
    let parsed: Vec<Frame> = serde_json::from_str(&array).unwrap_or_else(|_| {
        payloads
            .iter()
            .map_while(|p| serde_json::from_str(p).ok())
            .collect()
    });
    // A frame whose count does not continue the frames before it is as
    // untrustworthy as one that does not parse.
    let mut seq = 0;
    let mut frames = Vec::with_capacity(parsed.len());
    for frame in parsed {
        if frame.seq != seq + frame.observations.len() as u64 {
            break;
        }
        seq = frame.seq;
        frames.push(frame);
    }
    if frames.len() < payloads.len() {
        corruption = Some(format!(
            "snapshot frame {} carries undecodable payload; recovery stopped at the last valid record",
            frames.len() + 1
        ));
    }
    for frame in frames {
        recovered.observations.extend(frame.observations);
        recovered.status = frame.status;
        recovered.recommendation = frame.recommendation;
        recovered.snapshot_seq = frame.seq;
        for event in frame.drift_events {
            recovered.add_drift(event);
        }
    }
    if let Some(note) = corruption {
        recovered.note(note);
    }
    Ok(recovered)
}

/// Applies one surviving WAL/journal record to recovered state, dropping
/// duplicates the snapshot log (or an earlier log) already covers. A
/// record past the end of the recovered history means the frames or
/// records in between were lost to corruption: it opens a gap, and it
/// and every later record are ignored.
pub fn apply_record(recovered: &mut Recovered, record: WalRecord) {
    if recovered.gap {
        return;
    }
    let next = recovered.observations.len() as u64;
    match record {
        // Records an earlier log already covers are duplicates from a
        // crash between the frame append and the WAL truncation (or the
        // journal echoing the per-session WAL).
        WalRecord::Obs { seq, obs } if seq == next => recovered.observations.push(obs),
        WalRecord::Obs { seq, .. } if seq > next => recovered.open_gap(seq),
        WalRecord::Obs { .. } => {}
        WalRecord::Finished { recommendation: r } => {
            recovered.status = SessionStatus::Finished;
            recovered.recommendation = Some(r);
        }
        WalRecord::Cancelled => recovered.status = SessionStatus::Cancelled,
        WalRecord::Drift { event } if event.at_seq > next => recovered.open_gap(event.at_seq),
        WalRecord::Drift { event } => recovered.add_drift(event),
    }
}

/// Per-session record tails (in append order) plus a corruption note
/// when the journal scan stopped at an invalid frame.
pub type JournalContents = (BTreeMap<SessionId, Vec<WalRecord>>, Option<String>);

/// Reads the shared journal and demultiplexes its records by session.
pub fn read_journal(path: &Path) -> ServeResult<JournalContents> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((BTreeMap::new(), None));
        }
        Err(e) => return Err(e.into()),
    };
    let (entries, corruption) = scan_frames(&bytes, "journal", |payload| {
        serde_json::from_str::<JournalEntry>(payload).ok()
    });
    let mut by_session: BTreeMap<SessionId, Vec<WalRecord>> = BTreeMap::new();
    for entry in entries {
        by_session
            .entry(entry.session)
            .or_default()
            .push(entry.record);
    }
    Ok((by_session, corruption))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_core::Configuration;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("autotune-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn obs(rt: f64) -> Observation {
        Observation::ok(Configuration::new(), rt)
    }

    fn obs_record(seq: u64) -> WalRecord {
        WalRecord::Obs {
            seq,
            obs: obs(seq as f64),
        }
    }

    #[test]
    fn frame_codec_roundtrips_and_rejects_tampering() {
        let payload = b"{\"hello\":1}";
        let frame = encode_frame(payload);
        let line = std::str::from_utf8(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decode_frame(line), Some("{\"hello\":1}"));

        // Flip each byte in turn: every mutation must invalidate the frame.
        for i in 0..line.len() {
            let mut bad = line.as_bytes().to_vec();
            bad[i] ^= 0x01;
            if let Ok(s) = std::str::from_utf8(&bad) {
                assert_eq!(decode_frame(s), None, "flip at byte {i} went undetected");
            }
        }
        assert_eq!(decode_frame(""), None);
        assert_eq!(decode_frame("short"), None);
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Slicing-by-16 agrees with the bitwise definition at every length
        // around the 16-byte step.
        let bitwise = |bytes: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let dir = tmpdir("roundtrip");
        for i in 0..3u64 {
            append_record(&dir, &obs_record(i), Durability::Flush).unwrap();
        }
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 3);
        assert_eq!(rec.status, SessionStatus::Running);
        assert!(rec.corruption.is_none());
        assert!(wal_bytes(&dir) > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_append_is_readable_back() {
        let dir = tmpdir("fsync");
        append_record(&dir, &obs_record(0), Durability::Fsync).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 1);
        assert_eq!(Durability::parse("fsync").unwrap(), Durability::Fsync);
        assert_eq!(Durability::parse("flush").unwrap(), Durability::Flush);
        assert!(Durability::parse("paranoid").is_err());
        assert_eq!(Durability::Fsync.label(), "fsync");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_frame_stops_recovery_at_last_valid_record() {
        let dir = tmpdir("torn");
        append_record(&dir, &obs_record(0), Durability::Flush).unwrap();
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(b"0000001c 12345678 {\"Obs\":{\"seq\":1,")
            .unwrap(); // torn write
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 1);
        assert!(rec.corruption.is_some(), "torn tail must be reported");

        // Mid-file corruption: later valid frames are NOT applied — the
        // scan stops cleanly at the last record before the bad frame.
        let good0 = encode_record(&obs_record(0)).unwrap();
        let good1 = encode_record(&obs_record(1)).unwrap();
        let mut bytes = good0.clone();
        bytes.extend_from_slice(b"garbage line\n");
        bytes.extend_from_slice(&good1);
        fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(
            rec.observations.len(),
            1,
            "records after corruption are untrusted"
        );
        assert!(rec.corruption.unwrap().contains("frame 2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compaction_truncates_and_dedupes() {
        let dir = tmpdir("compact");
        for i in 0..4u64 {
            append_record(&dir, &obs_record(i), Durability::Flush).unwrap();
        }
        let mut history = History::new();
        for i in 0..4 {
            history.push(obs(i as f64));
        }
        write_snapshot(
            &dir,
            &Snapshot {
                seq: 4,
                history,
                status: SessionStatus::Running,
                recommendation: None,
                drift_events: Vec::new(),
            },
            Durability::Flush,
        )
        .unwrap();
        assert_eq!(wal_bytes(&dir), 0, "wal truncated after snapshot");

        // A stale duplicate (crash between rename and truncate) is dropped;
        // a genuinely new record applies.
        append_record(
            &dir,
            &WalRecord::Obs {
                seq: 2,
                obs: obs(99.0),
            },
            Durability::Flush,
        )
        .unwrap();
        append_record(&dir, &obs_record(4), Durability::Flush).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 5);
        assert_eq!(rec.observations[2].runtime_secs, 2.0, "duplicate ignored");
        assert_eq!(rec.snapshot_seq, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_snapshot_deletes_wal_and_recovers_snapshot_only() {
        let dir = tmpdir("terminal-gc");
        append_record(&dir, &obs_record(0), Durability::Flush).unwrap();
        let mut history = History::new();
        history.push(obs(0.0));
        write_snapshot(
            &dir,
            &Snapshot {
                seq: 1,
                history,
                status: SessionStatus::Finished,
                recommendation: None,
                drift_events: Vec::new(),
            },
            Durability::Fsync,
        )
        .unwrap();
        assert!(
            !dir.join(WAL_FILE).exists(),
            "terminal snapshot deletes the WAL"
        );
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.status, SessionStatus::Finished);
        assert_eq!(rec.observations.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_records_set_status() {
        let dir = tmpdir("terminal");
        append_record(&dir, &obs_record(0), Durability::Flush).unwrap();
        append_record(&dir, &WalRecord::Cancelled, Durability::Flush).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.status, SessionStatus::Cancelled);
        assert!(rec.status.is_terminal());
        assert_eq!(SessionStatus::Running.label(), "running");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_records_recover_in_order_and_dedupe() {
        let dir = tmpdir("drift");
        let event = |at_seq: u64, epoch: u32| DriftEvent {
            at_seq,
            epoch,
            stat: 1.5,
            warm_source: Some(SessionId::new(7)),
        };
        append_record(&dir, &obs_record(0), Durability::Flush).unwrap();
        append_record(&dir, &obs_record(1), Durability::Flush).unwrap();
        append_record(
            &dir,
            &WalRecord::Drift { event: event(2, 1) },
            Durability::Flush,
        )
        .unwrap();
        append_record(&dir, &obs_record(2), Durability::Flush).unwrap();
        // A journal echo of the same drift event must not double-apply.
        append_record(
            &dir,
            &WalRecord::Drift { event: event(2, 1) },
            Durability::Flush,
        )
        .unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 3);
        assert_eq!(rec.drift_events, vec![event(2, 1)]);

        // Snapshot folds the events; recovery reads them back.
        let mut history = History::new();
        for i in 0..3 {
            history.push(obs(i as f64));
        }
        write_snapshot(
            &dir,
            &Snapshot {
                seq: 3,
                history,
                status: SessionStatus::Running,
                recommendation: None,
                drift_events: vec![event(2, 1)],
            },
            Durability::Flush,
        )
        .unwrap();
        append_record(
            &dir,
            &WalRecord::Drift { event: event(3, 2) },
            Durability::Flush,
        )
        .unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.drift_events, vec![event(2, 1), event(3, 2)]);
        assert!(rec.corruption.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    fn snapshot_of(n: usize, status: SessionStatus) -> Snapshot {
        let mut history = History::new();
        for i in 0..n {
            history.push(obs(i as f64));
        }
        Snapshot {
            seq: n as u64,
            history,
            status,
            recommendation: None,
            drift_events: Vec::new(),
        }
    }

    fn log_frames(dir: &Path) -> Vec<Frame> {
        let bytes = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let (frames, corruption) = scan_frames(&bytes, "snapshot", |p| {
            serde_json::from_str::<Frame>(p).ok()
        });
        assert!(corruption.is_none(), "{corruption:?}");
        frames
    }

    #[test]
    fn compaction_appends_only_what_the_log_lacks() {
        let dir = tmpdir("append");
        write_snapshot(
            &dir,
            &snapshot_of(4, SessionStatus::Running),
            Durability::Fsync,
        )
        .unwrap();
        let after_first = fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
        write_snapshot(
            &dir,
            &snapshot_of(7, SessionStatus::Running),
            Durability::Flush,
        )
        .unwrap();
        let frames = log_frames(&dir);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].observations.len(), 3, "only the new observations");
        assert_eq!(frames[1].seq, 7);

        // The first frame's bytes are never rewritten.
        let bytes = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let first = encode_frame(
            serde_json::to_string(&Frame::after(&snapshot_of(4, SessionStatus::Running), 0))
                .unwrap()
                .as_bytes(),
        );
        assert_eq!(&bytes[..after_first as usize], &first[..]);

        // Compacting again at the same point appends nothing.
        let len = bytes.len();
        write_snapshot(
            &dir,
            &snapshot_of(7, SessionStatus::Running),
            Durability::Fsync,
        )
        .unwrap();
        assert_eq!(
            fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len(),
            len as u64
        );

        // A status change at the same point is a header-only frame.
        write_snapshot(
            &dir,
            &snapshot_of(7, SessionStatus::Cancelled),
            Durability::Flush,
        )
        .unwrap();
        let frames = log_frames(&dir);
        assert_eq!(frames.len(), 3);
        assert!(frames[2].observations.is_empty());
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 7);
        assert_eq!(rec.status, SessionStatus::Cancelled);
        assert_eq!(rec.snapshot_seq, 7);
        assert!(rec.corruption.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_that_does_not_end_in_a_frame_is_rewritten_once() {
        let dir = tmpdir("torn-log");
        write_snapshot(
            &dir,
            &snapshot_of(4, SessionStatus::Running),
            Durability::Flush,
        )
        .unwrap();
        write_snapshot(
            &dir,
            &snapshot_of(8, SessionStatus::Running),
            Durability::Flush,
        )
        .unwrap();
        let bytes = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        // Tear the second frame mid-payload, as a crash mid-append does.
        let first_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        fs::write(dir.join(SNAPSHOT_FILE), &bytes[..first_end + 40]).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 4, "falls back to the first frame");
        assert!(rec.corruption.unwrap().contains("snapshot frame 2"));

        // The next compaction cannot append behind the torn bytes: it
        // rewrites the log as a single frame, and the log extends again.
        write_snapshot(
            &dir,
            &snapshot_of(9, SessionStatus::Running),
            Durability::Flush,
        )
        .unwrap();
        assert_eq!(log_frames(&dir).len(), 1);
        write_snapshot(
            &dir,
            &snapshot_of(10, SessionStatus::Running),
            Durability::Flush,
        )
        .unwrap();
        assert_eq!(log_frames(&dir).len(), 2);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 10);
        assert!(rec.corruption.is_none());
        assert!(!dir.join("snapshot.json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_past_a_gap_are_reported_and_ignored() {
        let dir = tmpdir("gap");
        write_snapshot(
            &dir,
            &snapshot_of(2, SessionStatus::Running),
            Durability::Flush,
        )
        .unwrap();
        // The frames that held observations 2..5 were lost; the WAL
        // continues from 5 and finishes.
        append_record(&dir, &obs_record(5), Durability::Flush).unwrap();
        append_record(
            &dir,
            &WalRecord::Finished {
                recommendation: Recommendation {
                    config: Configuration::new(),
                    expected_runtime: None,
                    rationale: String::new(),
                },
            },
            Durability::Flush,
        )
        .unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.observations.len(), 2);
        assert_eq!(
            rec.status,
            SessionStatus::Running,
            "nothing past the gap applies"
        );
        assert!(rec.corruption.unwrap().contains("gap at 2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_drift_snapshots_still_parse() {
        // A snapshot written before the drift subsystem existed has no
        // `drift_events` key; it must read back as an empty list.
        let mut history = History::new();
        history.push(obs(1.0));
        let with = Snapshot {
            seq: 1,
            history,
            status: SessionStatus::Finished,
            recommendation: None,
            drift_events: Vec::new(),
        };
        let json = serde_json::to_string(&with).unwrap();
        let legacy = json.replace(",\"drift_events\":[]", "");
        assert_ne!(json, legacy, "test must actually strip the field");
        let back: Snapshot = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.seq, 1);
        assert!(back.drift_events.is_empty());
        assert_eq!(back.status, SessionStatus::Finished);
    }

    #[test]
    fn journal_demuxes_by_session_and_detects_corruption() {
        let dir = tmpdir("journal");
        let path = dir.join(JOURNAL_FILE);
        let a = SessionId::new(1);
        let b = SessionId::new(2);
        let mut bytes = Vec::new();
        bytes.extend(encode_journal_entry(a, &obs_record(0)).unwrap());
        bytes.extend(encode_journal_entry(b, &obs_record(0)).unwrap());
        bytes.extend(encode_journal_entry(a, &obs_record(1)).unwrap());
        fs::write(&path, &bytes).unwrap();

        let (map, corruption) = read_journal(&path).unwrap();
        assert!(corruption.is_none());
        assert_eq!(map[&a].len(), 2);
        assert_eq!(map[&b].len(), 1);

        // Flip one byte in the middle frame: sessions keep only the
        // records before the bad frame.
        let mid = encode_journal_entry(a, &obs_record(0)).unwrap().len() + 25;
        let mut torn = bytes.clone();
        torn[mid] ^= 0x40;
        fs::write(&path, &torn).unwrap();
        let (map, corruption) = read_journal(&path).unwrap();
        assert!(corruption.is_some());
        assert_eq!(map.get(&a).map(Vec::len), Some(1));
        assert!(!map.contains_key(&b));

        // Missing journal is an empty journal.
        let (map, corruption) = read_journal(&dir.join("nope.walj")).unwrap();
        assert!(map.is_empty() && corruption.is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
