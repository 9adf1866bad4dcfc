//! Crash-safe durable result store: one append-only journal of cache
//! entries, rewritten in place of itself when it has grown.
//!
//! CFM certification is deterministic and content-addressed (paper
//! §6.0: the verdict is a pure function of the canonical request text),
//! so every cached verdict is permanently valid. This module makes the
//! result cache survive restarts and `kill -9`:
//!
//! - **Journal** (`journal.wal`): every newly computed result is
//!   appended as one length-prefixed, CRC32-framed record before the
//!   response is considered durable. Appends are plain `write(2)` calls
//!   (no userspace buffering), optionally followed by `fsync` per
//!   [`FsyncMode`].
//! - **Compaction**: once more than [`PersistConfig::journal_max_bytes`]
//!   have been appended since the last compaction, the live cache
//!   entries are written to `journal.tmp`, synced, and renamed over
//!   `journal.wal`; appends go on through the handle that wrote them.
//!   Before the rename the old journal is whole and after it the new one
//!   is, so no crash loses what was durable (DESIGN §10).
//! - **Recovery**: on open, a leftover `journal.tmp` (an interrupted
//!   compaction) is removed and the journal is scanned once; later
//!   records win. Bit-flipped and undecodable records are *skipped*
//!   (counted in [`PersistStats::frames_skipped`]), never fatal and never
//!   served: a frame either passes its CRC or contributes nothing. A
//!   torn tail is cut off, so the next append lands where the next scan
//!   reads it.
//!
//! [`inspect_store`] reads the same file offline for `secflow
//! cache-inspect`.
//!
//! # Frame format
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc: u32 LE    | payload (len B)  |
//! +----------------+----------------+------------------+
//! ```
//!
//! `crc` is IEEE CRC-32 of the payload. The payload is one JSON object
//! `{"h":"<16-hex key hash>","c":"<canonical request text>",
//! "ok":bool,"f":{…response fields…}}` — the exact data
//! [`crate::service`] needs to re-render a byte-identical response.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::{CacheKey, CachedResult};
use crate::fault::{Faults, NoFaults};
use crate::json::Json;

/// Journal file name inside the cache directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// A compaction's new journal before its rename; removed on open.
pub const JOURNAL_TMP_FILE: &str = "journal.tmp";

/// Hard cap on one record's payload; a length field beyond this is
/// garbage (a torn or overwritten header), not a real frame.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

/// When to `fsync` the journal after an append.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsyncMode {
    /// Sync after every append: a record is durable before its response
    /// leaves the server. Slowest, zero-loss.
    Always,
    /// Sync at most every [`SYNC_INTERVAL`] (or every
    /// [`SYNC_EVERY_APPENDS`] appends, whichever comes first): bounded
    /// loss window, near-`Never` throughput.
    Interval,
    /// Never sync explicitly; the OS flushes when it pleases. A host
    /// crash may lose recent records (a process crash does not: appends
    /// are unbuffered writes).
    Never,
}

impl FsyncMode {
    /// Parses the CLI spelling (`always` | `interval` | `never`).
    pub fn parse(s: &str) -> Result<FsyncMode, String> {
        match s {
            "always" => Ok(FsyncMode::Always),
            "interval" => Ok(FsyncMode::Interval),
            "never" => Ok(FsyncMode::Never),
            other => Err(format!(
                "bad fsync mode `{other}` (always | interval | never)"
            )),
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            FsyncMode::Always => "always",
            FsyncMode::Interval => "interval",
            FsyncMode::Never => "never",
        }
    }
}

/// Longest time `FsyncMode::Interval` lets appends ride unsynced.
pub const SYNC_INTERVAL: Duration = Duration::from_millis(500);
/// Most appends `FsyncMode::Interval` lets ride unsynced.
pub const SYNC_EVERY_APPENDS: u64 = 64;

/// Configuration for a [`DurableStore`].
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Directory holding the journal. Must already exist and be
    /// writable (the CLI validates this up front).
    pub dir: PathBuf,
    /// Bytes appended since the last compaction that trigger the next
    /// one; a fresh open counts the whole journal it found (0 disables
    /// compaction; the journal grows without bound).
    pub journal_max_bytes: u64,
    /// When appended records are fsynced.
    pub fsync: FsyncMode,
}

impl PersistConfig {
    /// A config with default tuning (8 MiB journal, interval fsync).
    pub fn new(dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            journal_max_bytes: 8 << 20,
            fsync: FsyncMode::Interval,
        }
    }
}

/// Counters describing the store's history, reported as the `persist`
/// object of the `stats` response.
#[derive(Clone, Copy, Default, Debug)]
pub struct PersistStats {
    /// Distinct entries loaded into the cache at the last recovery.
    pub entries_recovered: u64,
    /// Corrupt/torn frames skipped during recovery (cumulative over
    /// recoveries performed by this store instance).
    pub frames_skipped: u64,
    /// Current journal size in bytes (after a compaction, the live
    /// entries it rewrote included).
    pub journal_bytes: u64,
    /// Compactions performed by this instance.
    pub compactions: u64,
    /// Wall time of the last recovery, in microseconds.
    pub last_recovery_us: u64,
    /// Journal appends that failed with an IO error (the result stays
    /// served from memory; durability for that entry is lost).
    pub io_errors: u64,
    /// Chaos-injected torn writes (tests only; 0 in production).
    pub torn_writes: u64,
    /// Chaos-injected skipped fsyncs (tests only; 0 in production).
    pub short_fsyncs: u64,
}

impl PersistStats {
    /// The `persist` stats object spliced into `stats` responses.
    pub fn fields(&self) -> Vec<(String, Json)> {
        let n = |v: u64| Json::Num(v as f64);
        vec![
            ("entries_recovered".to_string(), n(self.entries_recovered)),
            ("frames_skipped".to_string(), n(self.frames_skipped)),
            ("journal_bytes".to_string(), n(self.journal_bytes)),
            ("compactions".to_string(), n(self.compactions)),
            (
                "last_recovery_ms".to_string(),
                Json::Num(self.last_recovery_us as f64 / 1000.0),
            ),
            ("io_errors".to_string(), n(self.io_errors)),
            ("torn_writes".to_string(), n(self.torn_writes)),
            ("short_fsyncs".to_string(), n(self.short_fsyncs)),
        ]
    }
}

/// One cache entry reconstructed from disk.
#[derive(Clone, Debug)]
pub struct RecoveredEntry {
    /// The content address it was cached under.
    pub key: CacheKey,
    /// The cached response payload.
    pub value: CachedResult,
}

/// Outcome of scanning one journal.
#[derive(Default)]
pub struct ScanOutcome {
    /// Decoded entries, in file order (duplicates preserved; the caller
    /// replays them in order so later records win).
    pub entries: Vec<RecoveredEntry>,
    /// Frames rejected: CRC mismatch, truncated tail, garbage length,
    /// or an undecodable payload.
    pub skipped: u64,
    /// Total bytes in the file.
    pub bytes: u64,
    /// Offset just past the last frame that framed, CRC-failed ones
    /// included: short of `bytes` when a torn tail or an implausible
    /// length ended the scan.
    pub end: u64,
}

// ---- CRC-32 (IEEE, reflected) ------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC-32 of `bytes` (the frame checksum).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = (c >> 8) ^ CRC_TABLE[((c ^ b as u32) & 0xff) as usize];
    }
    !c
}

// ---- record codec -------------------------------------------------------

/// Serializes one cache entry into a frame payload.
pub fn encode_record(hash: u64, canon: &str, value: &CachedResult) -> Vec<u8> {
    Json::Obj(vec![
        ("h".to_string(), Json::Str(format!("{hash:016x}"))),
        ("c".to_string(), Json::Str(canon.to_string())),
        ("ok".to_string(), Json::Bool(value.ok)),
        ("f".to_string(), Json::Obj(value.fields.clone())),
    ])
    .to_string()
    .into_bytes()
}

/// Decodes a frame payload back into an entry (`None` on any shape
/// mismatch — a CRC-valid but unparseable record is still skipped, not
/// fatal).
pub fn decode_record(payload: &[u8]) -> Option<RecoveredEntry> {
    let text = std::str::from_utf8(payload).ok()?;
    let v = Json::parse(text).ok()?;
    let hash = u64::from_str_radix(v.get("h")?.as_str()?, 16).ok()?;
    let canon = v.get("c")?.as_str()?.to_string();
    let ok = v.get("ok")?.as_bool()?;
    let fields = v.get("f")?.as_obj()?.to_vec();
    Some(RecoveredEntry {
        key: CacheKey { hash, canon },
        value: CachedResult { ok, fields },
    })
}

/// Wraps a payload in a `len | crc | payload` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Scans a whole journal leniently: CRC-failed frames are skipped
/// individually (their length header still locates the next frame);
/// torn tails and garbage lengths end the scan at
/// [`ScanOutcome::end`] (the longest valid prefix wins). Never errors
/// on content — only on unreadable files.
pub fn scan_frames(bytes: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome {
        bytes: bytes.len() as u64,
        ..ScanOutcome::default()
    };
    let mut offset = 0usize;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 8 {
            // Torn tail: a partial header can never frame a record.
            out.skipped += 1;
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        if len > MAX_RECORD_BYTES || (len as usize) > remaining - 8 {
            // Garbage or truncated length: we cannot trust any byte
            // after this point, so stop at the valid prefix.
            out.skipped += 1;
            break;
        }
        let payload = &bytes[offset + 8..offset + 8 + len as usize];
        offset += 8 + len as usize;
        if crc32(payload) != crc {
            out.skipped += 1; // bit flip in payload or CRC: skip one frame
            continue;
        }
        match decode_record(payload) {
            Some(entry) => out.entries.push(entry),
            None => out.skipped += 1,
        }
    }
    out.end = offset as u64;
    out
}

/// Reads and scans one journal; a missing file is an empty scan.
pub fn scan_file(path: &Path) -> io::Result<ScanOutcome> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
            Ok(scan_frames(&bytes))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(ScanOutcome::default()),
        Err(e) => Err(e),
    }
}

// ---- the store ----------------------------------------------------------

/// The durable side of the result cache: owns the journal file handle
/// and the compaction/recovery machinery. Lives behind a `Mutex` in
/// [`crate::service::Service`].
pub struct DurableStore {
    cfg: PersistConfig,
    journal: File,
    journal_bytes: u64,
    /// Bytes appended since the last compaction (at open: the whole
    /// journal found, whose live share is unknown); the compaction
    /// trigger, which the rewritten live entries never count toward.
    appended: u64,
    appends_since_sync: u64,
    last_sync: Instant,
    faults: Arc<dyn Faults>,
    stats: PersistStats,
    recovered: Vec<RecoveredEntry>,
}

impl DurableStore {
    /// Opens (or creates) the store in `cfg.dir` and runs recovery.
    /// The recovered entries wait in [`DurableStore::drain_recovered`]
    /// for the service to replay into its cache.
    pub fn open(cfg: PersistConfig) -> io::Result<DurableStore> {
        DurableStore::open_with_faults(cfg, Arc::new(NoFaults))
    }

    /// [`open`](DurableStore::open) with chaos hooks (torn writes and
    /// skipped fsyncs) wired in; production uses [`NoFaults`].
    pub fn open_with_faults(
        cfg: PersistConfig,
        faults: Arc<dyn Faults>,
    ) -> io::Result<DurableStore> {
        let begin = Instant::now();
        // A leftover journal.tmp is an interrupted compaction: the
        // journal it would have replaced is still whole.
        let _ = std::fs::remove_file(cfg.dir.join(JOURNAL_TMP_FILE));
        let path = cfg.dir.join(JOURNAL_FILE);
        let scan = scan_file(&path)?;
        let journal = OpenOptions::new().create(true).append(true).open(&path)?;
        if scan.end < scan.bytes {
            // Cut the torn tail off: an append behind it would sit where
            // no later scan can frame it.
            journal.set_len(scan.end)?;
        }
        let journal_bytes = journal.metadata()?.len();
        let stats = PersistStats {
            frames_skipped: scan.skipped,
            journal_bytes,
            last_recovery_us: begin.elapsed().as_micros().min(u64::MAX as u128) as u64,
            ..PersistStats::default()
        };
        Ok(DurableStore {
            cfg,
            journal,
            journal_bytes,
            appended: journal_bytes,
            appends_since_sync: 0,
            last_sync: Instant::now(),
            faults,
            stats,
            recovered: scan.entries,
        })
    }

    /// Takes the entries recovered at open time, in journal order
    /// (later duplicates win when replayed through `ResultCache::put`).
    pub fn drain_recovered(&mut self) -> Vec<RecoveredEntry> {
        std::mem::take(&mut self.recovered)
    }

    /// Records how many distinct entries the service actually loaded.
    pub fn set_entries_recovered(&mut self, n: u64) {
        self.stats.entries_recovered = n;
    }

    /// Current counters (journal size kept live).
    pub fn stats(&self) -> PersistStats {
        let mut s = self.stats;
        s.journal_bytes = self.journal_bytes;
        s
    }

    /// Appends one entry to the journal. On IO error the entry simply
    /// is not durable (counted in `io_errors`); the in-memory cache
    /// still serves it.
    ///
    /// A write that fails, or leaves the journal at any other length
    /// than one more whole frame, is cut back to where the last whole
    /// frame ends, so a partial frame never sits in front of a later
    /// append where the next scan would mis-frame it.
    pub fn append(&mut self, key: &CacheKey, value: &CachedResult) -> io::Result<()> {
        let frame = encode_frame(&encode_record(key.hash, &key.canon, value));
        let whole = self.journal_bytes;
        let write = if self.faults.torn_write() {
            // Chaos: pretend the frame was written but tear it in half,
            // as a write that fails part-way would.
            self.stats.torn_writes += 1;
            self.journal.write_all(&frame[..frame.len() / 2])
        } else {
            self.journal.write_all(&frame)
        };
        let expected = whole + frame.len() as u64;
        let result = write.and_then(|()| match self.journal.metadata()?.len() {
            end if end == expected => Ok(()),
            end => Err(io::Error::other(format!(
                "journal append ended at byte {end}, not {expected}"
            ))),
        });
        if let Err(e) = result {
            // Best effort: if the cut fails too, the next append finds
            // the length wrong again and retries it.
            let _ = self.journal.set_len(whole);
            self.stats.io_errors += 1;
            return Err(e);
        }
        self.journal_bytes = expected;
        self.appended += frame.len() as u64;
        self.appends_since_sync += 1;
        let due = match self.cfg.fsync {
            FsyncMode::Always => true,
            FsyncMode::Interval => {
                self.appends_since_sync >= SYNC_EVERY_APPENDS
                    || self.last_sync.elapsed() >= SYNC_INTERVAL
            }
            FsyncMode::Never => false,
        };
        if due {
            sync(&*self.faults, &mut self.stats, &self.journal)?;
            self.appends_since_sync = 0;
            self.last_sync = Instant::now();
        }
        Ok(())
    }

    /// Whether more than the budget has been appended since the last
    /// compaction, so a compaction should run.
    pub fn wants_compaction(&self) -> bool {
        self.cfg.journal_max_bytes > 0 && self.appended > self.cfg.journal_max_bytes
    }

    /// Rewrites the journal as `live` (the cache's current entries,
    /// oldest first): they go to `journal.tmp`, which is synced and
    /// renamed over the journal. Until the rename the old journal is
    /// whole, and after it the new one is. Entries evicted from the
    /// cache are dropped here — they were recoverable from the journal
    /// until this moment (documented semantics; see DESIGN §10).
    pub fn compact(&mut self, live: &[(u64, String, CachedResult)]) -> io::Result<()> {
        let durable = self.cfg.fsync != FsyncMode::Never;
        let tmp_path = self.cfg.dir.join(JOURNAL_TMP_FILE);
        let mut fresh = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&tmp_path)?;
        fresh.set_len(0)?; // a failed compaction may have left one
        let mut written = 0;
        for (hash, canon, value) in live {
            let frame = encode_frame(&encode_record(*hash, canon, value));
            fresh.write_all(&frame)?;
            written += frame.len() as u64;
        }
        if durable {
            sync(&*self.faults, &mut self.stats, &fresh)?;
        }
        std::fs::rename(&tmp_path, self.cfg.dir.join(JOURNAL_FILE))?;
        if durable {
            // Make the rename durable: fsync the containing directory.
            // Directory fsync is not supported everywhere; a failure here
            // only widens the loss window, it cannot corrupt.
            if let Ok(d) = File::open(&self.cfg.dir) {
                let _ = d.sync_all();
            }
        }
        // Append through the handle that wrote the new journal: the old
        // one names an unlinked file now, so nothing may fail in between.
        self.journal = fresh;
        self.journal_bytes = written;
        self.appended = 0;
        self.appends_since_sync = 0;
        self.stats.compactions += 1;
        Ok(())
    }
}

/// `fsync`s `file`, unless the chaos plan skips this one: an fsync the
/// firmware lied about, with nothing to observe in-process (recovery's
/// tolerance covers it).
fn sync(faults: &dyn Faults, stats: &mut PersistStats, file: &File) -> io::Result<()> {
    if faults.short_fsync() {
        stats.short_fsyncs += 1;
        return Ok(());
    }
    file.sync_all().inspect_err(|_| stats.io_errors += 1)
}

// ---- offline inspection -------------------------------------------------

/// Everything `secflow cache-inspect` learns from one store directory,
/// without mutating it (a leftover `journal.tmp` is reported, not
/// removed).
pub struct StoreReport {
    /// Entries decoded from the journal, in file order.
    pub journal_entries: Vec<RecoveredEntry>,
    /// Frames skipped (corruption indicator).
    pub frames_skipped: u64,
    /// Journal size in bytes.
    pub journal_bytes: u64,
    /// Whether a `journal.tmp` is lying around (a compaction was
    /// interrupted; harmless, removed at next open).
    pub tmp_present: bool,
}

impl StoreReport {
    /// Distinct entries a recovery of this store would load (a later
    /// record overrides an earlier one with the same content hash).
    pub fn unique_entries(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for e in &self.journal_entries {
            seen.insert((e.key.hash, e.key.canon.clone()));
        }
        seen.len()
    }

    /// Entries whose persisted reply carries a proof certificate — the
    /// results a warm-started server re-serves with zero re-proving.
    pub fn cert_entries(&self) -> usize {
        self.journal_entries
            .iter()
            .filter(|e| carries_certificate(&e.value))
            .count()
    }

    /// True when every frame in the store scanned clean.
    pub fn clean(&self) -> bool {
        self.frames_skipped == 0
    }
}

/// Whether a persisted result's fields include a proof certificate.
pub fn carries_certificate(value: &CachedResult) -> bool {
    value
        .fields
        .iter()
        .any(|(k, v)| k == "certificate" && v.as_str().is_some())
}

/// Scans a store directory read-only (the offline `cache-inspect`
/// path). Errors only on unreadable files, never on corrupt content.
pub fn inspect_store(dir: &Path) -> io::Result<StoreReport> {
    if !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("`{}` is not a directory", dir.display()),
        ));
    }
    let journal = scan_file(&dir.join(JOURNAL_FILE))?;
    Ok(StoreReport {
        frames_skipped: journal.skipped,
        journal_bytes: journal.bytes,
        journal_entries: journal.entries,
        tmp_present: dir.join(JOURNAL_TMP_FILE).exists(),
    })
}

/// Renders a human-readable inspection report (the `cache-inspect`
/// output without `--json`).
pub fn render_report(report: &StoreReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let entries = &report.journal_entries;
    let _ = writeln!(
        out,
        "journal: {} entries, {} bytes",
        entries.len(),
        report.journal_bytes
    );
    for e in entries {
        let _ = writeln!(
            out,
            "  {:016x}  ok={}  {} field(s)  {}{}",
            e.key.hash,
            e.value.ok,
            e.value.fields.len(),
            summarize_canon(&e.key.canon),
            if carries_certificate(&e.value) {
                "  +cert"
            } else {
                ""
            },
        );
    }
    let _ = writeln!(
        out,
        "unique entries: {}   with certificates: {}   frames skipped: {}{}{}",
        report.unique_entries(),
        report.cert_entries(),
        report.frames_skipped,
        if report.tmp_present {
            "   (interrupted compaction tmp present)"
        } else {
            ""
        },
        if report.clean() {
            "   CLEAN"
        } else {
            "   CORRUPT FRAMES"
        },
    );
    out
}

/// First length-prefixed part of a canonical key — the operation name —
/// so inspection output shows what kind of result each record holds.
fn summarize_canon(canon: &str) -> String {
    let Some((len, rest)) = canon.split_once(':') else {
        return String::from("?");
    };
    let Ok(n) = len.parse::<usize>() else {
        return String::from("?");
    };
    rest.get(..n)
        .map_or_else(|| String::from("?"), str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("secflow-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(tag: &str) -> (CacheKey, CachedResult) {
        let key = CacheKey::of(&["certify", tag]);
        let value = CachedResult {
            ok: true,
            fields: vec![
                (
                    "certified".to_string(),
                    Json::Bool(tag.len().is_multiple_of(2)),
                ),
                ("checks".to_string(), Json::Num(tag.len() as f64)),
                (
                    "report".to_string(),
                    Json::Str(format!("report for {tag}\nline 2")),
                ),
            ],
        };
        (key, value)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trips_exactly() {
        let (key, value) = entry("alpha");
        let payload = encode_record(key.hash, &key.canon, &value);
        let back = decode_record(&payload).unwrap();
        assert_eq!(back.key.hash, key.hash);
        assert_eq!(back.key.canon, key.canon);
        assert_eq!(back.value.ok, value.ok);
        assert_eq!(back.value.fields, value.fields);
    }

    #[test]
    fn journal_appends_and_recovers_in_order() {
        let dir = tmp_dir("order");
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        for tag in ["a", "b", "c"] {
            let (key, value) = entry(tag);
            store.append(&key, &value).unwrap();
        }
        drop(store); // no graceful shutdown needed

        let mut reopened = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        let entries = reopened.drain_recovered();
        assert_eq!(entries.len(), 3);
        assert_eq!(reopened.stats().frames_skipped, 0);
        let canons: Vec<&str> = entries.iter().map(|e| e.key.canon.as_str()).collect();
        assert_eq!(canons[0], entry("a").0.canon);
        assert_eq!(canons[2], entry("c").0.canon);
    }

    #[test]
    fn flipped_payload_byte_skips_exactly_one_frame() {
        let dir = tmp_dir("flip");
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        for tag in ["a", "b", "c"] {
            let (key, value) = entry(tag);
            store.append(&key, &value).unwrap();
        }
        drop(store);
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF; // inside the first frame's payload
        std::fs::write(&path, &bytes).unwrap();

        let mut reopened = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        let entries = reopened.drain_recovered();
        assert_eq!(reopened.stats().frames_skipped, 1);
        assert_eq!(entries.len(), 2, "frames after the flip still recover");
        assert_eq!(entries[0].key.canon, entry("b").0.canon);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "a frame that frames stays"
        );
    }

    #[test]
    fn torn_tail_recovers_the_valid_prefix() {
        let dir = tmp_dir("torn");
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        for tag in ["a", "b"] {
            let (key, value) = entry(tag);
            store.append(&key, &value).unwrap();
        }
        drop(store);
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap(); // tear mid-frame

        let mut reopened = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        let entries = reopened.drain_recovered();
        assert_eq!(entries.len(), 1);
        assert_eq!(reopened.stats().frames_skipped, 1);
        // The store stays appendable after a torn tail: open cut the torn
        // bytes off, so a new record lands where the next scan reads it
        // (`a_torn_tail_hides_no_later_append`).
        let (key, value) = entry("после");
        reopened.append(&key, &value).unwrap();
    }

    #[test]
    fn a_torn_tail_hides_no_later_append() {
        let dir = tmp_dir("torn-later");
        let cfg = PersistConfig {
            fsync: FsyncMode::Always,
            ..PersistConfig::new(&dir)
        };
        let mut store = DurableStore::open(cfg.clone()).unwrap();
        for tag in ["a", "b"] {
            let (key, value) = entry(tag);
            store.append(&key, &value).unwrap();
        }
        drop(store);
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let mut torn = DurableStore::open(cfg.clone()).unwrap();
        assert_eq!(torn.drain_recovered().len(), 1);
        assert_eq!(torn.stats().frames_skipped, 1);
        for tag in ["c", "d", "e"] {
            let (key, value) = entry(tag);
            torn.append(&key, &value).unwrap();
        }
        drop(torn);

        let mut reopened = DurableStore::open(cfg).unwrap();
        let canons: Vec<String> = reopened
            .drain_recovered()
            .into_iter()
            .map(|e| e.key.canon)
            .collect();
        let expected: Vec<String> = ["a", "c", "d", "e"]
            .iter()
            .map(|tag| entry(tag).0.canon)
            .collect();
        assert_eq!(canons, expected, "every acknowledged append recovers");
        assert_eq!(reopened.stats().frames_skipped, 0);
    }

    #[test]
    fn garbage_length_field_stops_at_the_valid_prefix() {
        let dir = tmp_dir("len");
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        let (key, value) = entry("a");
        store.append(&key, &value).unwrap();
        drop(store);
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Append a frame whose length field claims 4 GiB.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0, 1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();

        let mut reopened = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(reopened.drain_recovered().len(), 1);
        assert_eq!(reopened.stats().frames_skipped, 1);
    }

    #[test]
    fn empty_and_missing_stores_recover_clean() {
        let dir = tmp_dir("empty");
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        assert!(store.drain_recovered().is_empty());
        assert_eq!(store.stats().frames_skipped, 0);
        assert_eq!(store.stats().journal_bytes, 0);
    }

    /// Opens a store whose first append chaos tears, appends `tags` and
    /// returns each append's result and the store's counters.
    fn tear_the_first_append(dir: &Path, tags: &[&str]) -> (Vec<io::Result<()>>, PersistStats) {
        let mut plan = FaultPlan::new(11);
        plan.torn_write_per_mille = 1000;
        plan.max_faults = 1; // tear exactly the first append
        let cfg = PersistConfig {
            fsync: FsyncMode::Always,
            ..PersistConfig::new(dir)
        };
        let mut store = DurableStore::open_with_faults(cfg, Arc::new(plan)).unwrap();
        let results = tags
            .iter()
            .map(|tag| {
                let (key, value) = entry(tag);
                store.append(&key, &value)
            })
            .collect();
        (results, store.stats())
    }

    #[test]
    fn chaos_torn_write_is_skipped_on_recovery() {
        let dir = tmp_dir("chaos-torn");
        let (results, stats) = tear_the_first_append(&dir, &["a", "b", "c"]);
        // The torn append fails and is cut off, so recovery has nothing
        // to skip; the later ones land whole.
        assert!(results[0].is_err());
        assert!(results[1..].iter().all(Result::is_ok));
        assert_eq!((stats.torn_writes, stats.io_errors), (1, 1));
        let whole: u64 = ["b", "c"]
            .iter()
            .map(|tag| {
                let (key, value) = entry(tag);
                encode_frame(&encode_record(key.hash, &key.canon, &value)).len() as u64
            })
            .sum();
        assert_eq!(stats.journal_bytes, whole);
        let path = dir.join(JOURNAL_FILE);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
    }

    #[test]
    fn a_torn_append_hides_no_later_append() {
        let dir = tmp_dir("torn-append");
        tear_the_first_append(&dir, &["a", "b", "c"]);
        let mut reopened = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        let canons: Vec<String> = reopened
            .drain_recovered()
            .into_iter()
            .map(|e| e.key.canon)
            .collect();
        let expected: Vec<String> = ["b", "c"].iter().map(|tag| entry(tag).0.canon).collect();
        assert_eq!(canons, expected, "every acknowledged append recovers");
        assert_eq!(reopened.stats().frames_skipped, 0);
    }

    #[test]
    fn fsync_modes_all_append_and_recover() {
        for mode in [FsyncMode::Always, FsyncMode::Interval, FsyncMode::Never] {
            let dir = tmp_dir(&format!("fsync-{}", mode.name()));
            let cfg = PersistConfig {
                fsync: mode,
                ..PersistConfig::new(&dir)
            };
            let mut store = DurableStore::open(cfg.clone()).unwrap();
            let (key, value) = entry("x");
            store.append(&key, &value).unwrap();
            drop(store);
            let mut reopened = DurableStore::open(cfg).unwrap();
            assert_eq!(reopened.drain_recovered().len(), 1, "{}", mode.name());
        }
    }

    #[test]
    fn fsync_mode_parses_and_rejects() {
        assert_eq!(FsyncMode::parse("always").unwrap(), FsyncMode::Always);
        assert_eq!(FsyncMode::parse("interval").unwrap(), FsyncMode::Interval);
        assert_eq!(FsyncMode::parse("never").unwrap(), FsyncMode::Never);
        assert!(FsyncMode::parse("sometimes").is_err());
    }

    fn live(tags: &[&str]) -> Vec<(u64, String, CachedResult)> {
        tags.iter()
            .map(|tag| {
                let (key, value) = entry(tag);
                (key.hash, key.canon, value)
            })
            .collect()
    }

    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn compaction_rewrites_the_journal_and_drops_nothing_live() {
        let dir = tmp_dir("compact");
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        let entries = live(&["a", "b", "c"]);
        for (hash, canon, value) in &entries {
            let key = CacheKey {
                hash: *hash,
                canon: canon.clone(),
            };
            store.append(&key, value).unwrap();
            store.append(&key, value).unwrap(); // a duplicate compaction drops
        }
        let journal = dir.join(JOURNAL_FILE);
        let before = std::fs::metadata(&journal).unwrap().len();
        store.compact(&entries).unwrap();
        let after = std::fs::metadata(&journal).unwrap().len();
        assert_eq!(after * 2, before, "one frame per live entry");
        assert_eq!(store.stats().journal_bytes, after);
        assert_eq!(store.stats().compactions, 1);
        assert!(!store.wants_compaction());
        assert_eq!(files_in(&dir), [JOURNAL_FILE]);
        // Appends after the rename land in the new journal.
        let (key, value) = entry("d");
        store.append(&key, &value).unwrap();
        drop(store);

        let mut reopened = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(reopened.drain_recovered().len(), 4);
        assert_eq!(reopened.stats().frames_skipped, 0);
    }

    #[test]
    fn live_entries_over_the_budget_do_not_compact_every_append() {
        let dir = tmp_dir("budget");
        let entries = live(&["a", "b", "c", "d", "e", "f", "g", "h"]);
        let frame = |(hash, canon, value): &(u64, String, CachedResult)| {
            encode_frame(&encode_record(*hash, canon, value)).len() as u64
        };
        let live_bytes: u64 = entries.iter().map(frame).sum();
        // The budget is three appends; the live set alone is over it.
        let cfg = PersistConfig {
            journal_max_bytes: 3 * frame(&entries[0]),
            ..PersistConfig::new(&dir)
        };
        assert!(live_bytes > cfg.journal_max_bytes);
        let mut store = DurableStore::open(cfg.clone()).unwrap();
        store.compact(&entries).unwrap();
        assert_eq!(store.stats().journal_bytes, live_bytes);
        let mut wanted = Vec::new();
        for tag in ["i", "j", "k", "l"] {
            let (key, value) = entry(tag);
            store.append(&key, &value).unwrap();
            wanted.push(store.wants_compaction());
        }
        assert_eq!(wanted, [false, false, false, true]);
        store.compact(&entries).unwrap();
        assert!(!store.wants_compaction());
        drop(store);

        // A fresh open counts the journal it found toward the budget.
        let reopened = DurableStore::open(cfg).unwrap();
        assert!(reopened.wants_compaction());
    }

    #[test]
    fn interrupted_compaction_leaves_old_state_recoverable() {
        let dir = tmp_dir("interrupted");
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        for (hash, canon, value) in live(&["a", "b"]) {
            store.append(&CacheKey { hash, canon }, &value).unwrap();
        }
        drop(store);
        // Simulate a crash before the rename: a torn tmp file, journal
        // intact.
        std::fs::write(dir.join(JOURNAL_TMP_FILE), b"torn half-written journ").unwrap();

        let report = inspect_store(&dir).unwrap();
        assert!(report.tmp_present);
        assert_eq!(report.journal_entries.len(), 2);

        let mut reopened = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        assert_eq!(reopened.drain_recovered().len(), 2);
        assert_eq!(reopened.stats().frames_skipped, 0, "tmp is not scanned");
        assert_eq!(files_in(&dir), [JOURNAL_FILE], "tmp removed on open");
    }

    #[test]
    fn inspect_reports_corruption_and_op_names() {
        let dir = tmp_dir("inspect");
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        for (hash, canon, value) in live(&["a", "b"]) {
            store.append(&CacheKey { hash, canon }, &value).unwrap();
        }
        drop(store);
        let clean = inspect_store(&dir).unwrap();
        assert!(clean.clean());
        assert_eq!(clean.unique_entries(), 2);
        let rendered = render_report(&clean);
        assert!(rendered.contains("certify"), "{rendered}");
        assert!(rendered.contains("CLEAN"), "{rendered}");

        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let corrupt = inspect_store(&dir).unwrap();
        assert!(!corrupt.clean());
        assert_eq!(corrupt.frames_skipped, 1);
        assert!(render_report(&corrupt).contains("CORRUPT"));
    }

    #[test]
    fn inspect_counts_certificate_entries() {
        let dir = tmp_dir("certs");
        let mut entries = live(&["plain"]);
        let key = CacheKey::of(&["certify", "with-proof"]);
        entries.push((
            key.hash,
            key.canon,
            CachedResult {
                ok: true,
                fields: vec![
                    ("certified".to_string(), Json::Bool(true)),
                    (
                        "certificate".to_string(),
                        Json::Str(r#"{"format":"secflow-cert"}"#.to_string()),
                    ),
                ],
            },
        ));
        let mut store = DurableStore::open(PersistConfig::new(&dir)).unwrap();
        store.compact(&entries).unwrap();
        drop(store);
        let report = inspect_store(&dir).unwrap();
        assert_eq!(report.unique_entries(), 2);
        assert_eq!(report.cert_entries(), 1);
        let rendered = render_report(&report);
        assert!(rendered.starts_with("journal: 2 entries"), "{rendered}");
        assert!(rendered.contains("+cert"), "{rendered}");
        assert!(rendered.contains("with certificates: 1"), "{rendered}");
    }

    #[test]
    fn inspect_missing_dir_errors() {
        let missing = std::env::temp_dir().join("secflow-persist-definitely-missing");
        let _ = std::fs::remove_dir_all(&missing);
        assert!(inspect_store(&missing).is_err());
    }
}
