//! The outcome cache's on-disk layer: an append-only JSON-lines file,
//! versioned by a schema fingerprint, loaded lazily and flushed every
//! 32 entries and on shutdown.
//!
//! File format (`<cache-dir>/outcomes.jsonl`):
//!
//! ```text
//! {"schema":"<fingerprint>"}                 ← header line
//! {"key":"<canonical key>","outcome":{…}}    ← one entry per line
//! ```
//!
//! * **Versioned.** The header's fingerprint digests the serialised
//!   shape of a sentinel [`Outcome`] plus the crate version; a file
//!   written by an incompatible build is ignored wholesale (and
//!   rewritten on the next flush) instead of feeding stale bytes to
//!   clients.
//! * **Lazy.** Nothing is read at construction. The first lookup (or
//!   insert) scans the file once, building a key → byte-span index;
//!   outcome bodies stay on disk until a key actually hits, so start-up
//!   cost is one sequential read of the index, not a deserialisation of
//!   every stored outcome.
//! * **Built from the stored text.** An entry line is assembled from the
//!   outcome's [`Encoded`] text as `{"key":<escaped key>,"outcome":<text>}`
//!   — the exact bytes serialising the line as a struct gives, so files
//!   written before and after stay interchangeable — and the outcome is
//!   never encoded again for disk.
//! * **Append-only.** Inserts buffer in memory until `FLUSH_EVERY` (32)
//!   are pending, then [`DiskTier::insert`] appends them itself, so a
//!   crash loses at most 31 entries and flushed lines are freed.
//!   `/shutdown` and SIGTERM call [`DiskTier::flush`] for the rest; the
//!   count it returns (`/shutdown`'s `flushed`) covers only what that
//!   flush wrote. Within a file, later entries for a key shadow earlier
//!   ones; since every search is deterministic per canonical key,
//!   shadowed entries are byte-equal anyway and re-warming a key is
//!   skipped entirely.
//! * **Torn tails repaired.** A crash mid-append can leave a final line
//!   without its `\n`. Loading skips that line, and the next flush first
//!   terminates it, so new entries never glue onto the torn bytes.

use crate::outcome::Encoded;
use cme_api::Outcome;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Pending entries that trigger an automatic flush from
/// [`DiskTier::insert`]. It bounds both what a crash can lose and the
/// linear scan that de-duplicates pending keys.
const FLUSH_EVERY: usize = 32;

/// One persisted entry, as loading reads it back ([`disk_line`] writes
/// the same bytes).
#[derive(Serialize, Deserialize)]
struct DiskLine {
    key: String,
    outcome: Outcome,
}

/// The line persisting `outcome` under `key`, built from its stored text.
fn disk_line(key: &str, outcome: &Encoded<Outcome>) -> Option<String> {
    let key = serde_json::to_string(&key).ok()?;
    Some(format!("{{\"key\":{key},\"outcome\":{}}}", outcome.text()))
}

#[derive(Serialize, Deserialize)]
struct Header {
    schema: String,
}

/// Fingerprint of the persisted schema: the serialised shape of a
/// sentinel outcome (field names and structure, not values) plus the
/// crate version. Computed with the unkeyed `DefaultHasher`, which is
/// stable across processes of one build.
pub fn schema_fingerprint() -> String {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    // The sentinel always serialises; an empty shape would still
    // version by crate version below.
    let shape = serde_json::to_string(&sentinel_outcome()).unwrap_or_default();
    let mut h = DefaultHasher::new();
    shape.hash(&mut h);
    env!("CARGO_PKG_VERSION").hash(&mut h);
    format!("{:016x}", h.finish())
}

/// A fixed-value outcome whose JSON spells out the full field layout —
/// `Option` fields populated so renames/removals anywhere in the tree
/// change the fingerprint.
fn sentinel_outcome() -> Outcome {
    use cme_api::cme::estimate::SolverStats;
    use cme_api::cme::{CacheSpec, MissEstimate};
    use cme_api::Transform;
    let est = MissEstimate {
        n_samples: 1,
        volume: 1,
        exact: true,
        per_ref: Vec::new(),
        solver: SolverStats::default(),
        levels: None,
    };
    Outcome {
        strategy: "schema-probe".into(),
        kernel: "schema-probe".into(),
        cache: CacheSpec::paper_8k().into(),
        transform: Transform::default(),
        before: est.clone(),
        after: est,
        ga: None,
        explored: None,
        legality: None,
        wall_ms: 0,
    }
}

/// Byte span of one entry line within the file.
#[derive(Clone, Copy)]
struct Span {
    offset: u64,
    len: u64,
}

struct DiskState {
    /// Key → span of its (last) on-disk line. Empty when the file is
    /// absent or carries a foreign fingerprint.
    index: HashMap<String, Span>,
    /// Entries accepted since the last flush, in insertion order.
    pending: Vec<(String, String)>,
    /// The file must be rewritten from scratch on flush (absent, or its
    /// header named another schema).
    rewrite: bool,
}

/// Counters snapshot for `/metrics` (`cache.disk` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    /// Whether the lazy index has been built yet.
    pub loaded: bool,
    /// Indexed on-disk entries plus unflushed pending entries (0 until
    /// loaded).
    pub entries: usize,
    pub hits: u64,
    pub misses: u64,
    /// Entries accepted for appending since start-up.
    pub appended: u64,
}

/// The persistent tier behind [`crate::TieredOutcomeCache`].
pub struct DiskTier {
    path: PathBuf,
    fingerprint: String,
    state: OnceLock<Mutex<DiskState>>,
    hits: AtomicU64,
    misses: AtomicU64,
    appended: AtomicU64,
}

impl DiskTier {
    /// A tier rooted at `dir` (created on first flush if absent).
    pub fn new(dir: &Path) -> Self {
        DiskTier {
            path: dir.join("outcomes.jsonl"),
            fingerprint: schema_fingerprint(),
            state: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appended: AtomicU64::new(0),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    fn loaded(&self) -> bool {
        self.state.get().is_some()
    }

    /// Build (once) and lock the index. A malformed or foreign-schema
    /// file yields an empty index marked for rewrite — stale bytes are
    /// never served.
    fn state(&self) -> MutexGuard<'_, DiskState> {
        self.state
            .get_or_init(|| Mutex::new(self.load()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn load(&self) -> DiskState {
        let empty = |rewrite| DiskState { index: HashMap::new(), pending: Vec::new(), rewrite };
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return empty(true);
        };
        let mut lines = text.split_inclusive('\n');
        let Some(header_line) = lines.next() else {
            return empty(true);
        };
        match serde_json::from_str::<Header>(header_line.trim_end()) {
            Ok(h) if h.schema == self.fingerprint => {}
            _ => return empty(true),
        }
        let mut index = HashMap::new();
        let mut offset = header_line.len() as u64;
        for line in lines {
            let span = Span { offset, len: line.trim_end().len() as u64 };
            offset += line.len() as u64;
            // Only the key is needed for the index; the outcome body is
            // parsed on demand. A line that fails to parse is skipped —
            // a torn final append must not poison the prior entries.
            if let Ok(entry) = serde_json::from_str::<DiskLine>(line.trim_end()) {
                index.insert(entry.key, span);
            }
        }
        DiskState { index, pending: Vec::new(), rewrite: false }
    }

    /// Look up a persisted outcome (timing-stripped form).
    pub fn get(&self, key: &str) -> Option<Outcome> {
        let span = {
            let state = self.state();
            match state.index.get(key) {
                Some(span) => *span,
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        };
        match self.read_span(span) {
            Some(entry) if entry.key == key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.outcome)
            }
            _ => {
                // The file changed under us or the span is torn; treat
                // as a miss rather than serving corrupt bytes.
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn read_span(&self, span: Span) -> Option<DiskLine> {
        let mut file = std::fs::File::open(&self.path).ok()?;
        file.seek(SeekFrom::Start(span.offset)).ok()?;
        let mut buf = vec![0u8; span.len as usize];
        file.read_exact(&mut buf).ok()?;
        let text = String::from_utf8(buf).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Accept an outcome for appending. Entries buffer until
    /// `FLUSH_EVERY` are pending, which appends them all. Keys already
    /// on disk or already pending are skipped — re-warming a
    /// deterministic outcome never grows the file.
    pub fn insert(&self, key: &str, outcome: &Encoded<Outcome>) {
        let mut state = self.state();
        if state.index.contains_key(key) || state.pending.iter().any(|(k, _)| k == key) {
            return;
        }
        let Some(json) = disk_line(key, outcome) else {
            return;
        };
        state.pending.push((key.to_string(), json));
        self.appended.fetch_add(1, Ordering::Relaxed);
        if state.pending.len() >= FLUSH_EVERY {
            self.write_pending(&mut state);
        }
    }

    /// Append pending entries (rewriting the file first when it was
    /// absent or foreign-schema). Best-effort: I/O failure leaves the
    /// pending buffer intact for a later flush. Returns the number of
    /// entries written by this call.
    pub fn flush(&self) -> usize {
        self.write_pending(&mut self.state())
    }

    fn write_pending(&self, state: &mut DiskState) -> usize {
        if state.pending.is_empty() && !state.rewrite {
            return 0;
        }
        if let Some(dir) = self.path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                return 0;
            }
        }
        let fresh = state.rewrite || !self.path.exists();
        let open = if fresh {
            std::fs::File::create(&self.path)
        } else {
            std::fs::OpenOptions::new().read(true).append(true).open(&self.path)
        };
        let Ok(mut file) = open else {
            return 0;
        };
        let mut offset = if fresh {
            let Ok(header) = serde_json::to_string(&Header { schema: self.fingerprint.clone() })
            else {
                return 0;
            };
            if file.write_all(header.as_bytes()).is_err() || file.write_all(b"\n").is_err() {
                return 0;
            }
            state.index.clear();
            header.len() as u64 + 1
        } else {
            match repair_torn_tail(&mut file) {
                Ok(len) => len,
                Err(_) => return 0,
            }
        };
        let mut written = 0;
        let pending = std::mem::take(&mut state.pending);
        for (key, json) in pending {
            if file.write_all(json.as_bytes()).is_err() || file.write_all(b"\n").is_err() {
                // Keep the unwritten tail for a later retry.
                state.pending.push((key, json));
                continue;
            }
            state.index.insert(key, Span { offset, len: json.len() as u64 });
            offset += json.len() as u64 + 1;
            written += 1;
        }
        let _ = file.sync_all();
        state.rewrite = false;
        written
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    pub fn stats(&self) -> DiskStats {
        let entries = match self.state.get() {
            Some(m) => {
                let s = m.lock().unwrap_or_else(PoisonError::into_inner);
                s.index.len() + s.pending.len()
            }
            None => 0,
        };
        DiskStats {
            loaded: self.loaded(),
            entries,
            hits: self.hits(),
            misses: self.misses(),
            appended: self.appended(),
        }
    }
}

/// Terminate a torn final line (a crash mid-append) so the next append
/// starts on a line of its own. Returns the file length afterwards — the
/// offset of the next appended byte.
fn repair_torn_tail(file: &mut std::fs::File) -> std::io::Result<u64> {
    let len = file.metadata()?.len();
    if len == 0 {
        return Ok(0);
    }
    let mut last = [0u8; 1];
    file.seek(SeekFrom::Start(len - 1))?;
    file.read_exact(&mut last)?;
    if last[0] == b'\n' {
        return Ok(len);
    }
    file.write_all(b"\n")?;
    Ok(len + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory for one test's tier.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cme-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A distinct outcome per index.
    fn outcome(i: usize) -> Outcome {
        Outcome { kernel: format!("k{i}"), ..sentinel_outcome() }
    }

    fn encoded(i: usize) -> Encoded<Outcome> {
        Encoded::new(&outcome(i)).unwrap()
    }

    fn key(i: usize) -> String {
        format!("key-{i}")
    }

    /// The stored bytes of a served entry equal what was inserted.
    fn served(tier: &DiskTier, i: usize) -> bool {
        tier.get(&key(i)).is_some_and(|o| serde_json::to_string(&o).unwrap() == encoded(i).text())
    }

    #[test]
    fn a_line_built_from_the_stored_text_is_the_serialised_struct() {
        // Keys that need escaping too: quotes, backslashes, control
        // characters and non-ASCII text.
        for key in ["key-0", r#"{"nest":{"Kernel":{"name":"MM"}}}"#, "tab\tand\\ \u{1} é"] {
            let out = Outcome { wall_ms: 41, ..outcome(3) };
            let line = disk_line(key, &Encoded::new(&out).unwrap()).unwrap();
            let want = serde_json::to_string(&DiskLine {
                key: key.to_string(),
                outcome: out.without_timing(),
            })
            .unwrap();
            assert_eq!(line, want);
        }
    }

    #[test]
    fn a_full_batch_flushes_without_an_explicit_flush() {
        let dir = scratch("batch");
        {
            let tier = DiskTier::new(&dir);
            for i in 0..40 {
                tier.insert(&key(i), &encoded(i));
            }
            // Dropped without `flush` — a crash as far as the file knows.
        }
        let tier = DiskTier::new(&dir);
        assert!((0..FLUSH_EVERY).all(|i| served(&tier, i)), "the first batch survives");
        assert!((FLUSH_EVERY..40).all(|i| tier.get(&key(i)).is_none()), "the rest was pending");
        assert_eq!(tier.stats().entries, FLUSH_EVERY);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_is_terminated_before_the_next_append() {
        let dir = scratch("torn");
        let tier = DiskTier::new(&dir);
        tier.insert(&key(0), &encoded(0));
        tier.insert(&key(1), &encoded(1));
        assert_eq!(tier.flush(), 2);
        // A crash mid-append: the last line is cut inside its JSON.
        let line = serde_json::to_string(&DiskLine { key: key(2), outcome: outcome(2) }).unwrap();
        let mut file = std::fs::OpenOptions::new().append(true).open(tier.path()).unwrap();
        file.write_all(&line.as_bytes()[..line.len() / 2]).unwrap();
        drop((file, tier));

        let tier = DiskTier::new(&dir);
        assert!(served(&tier, 0) && served(&tier, 1), "entries before the tear are served");
        assert!(tier.get(&key(2)).is_none(), "the torn entry is never served");
        tier.insert(&key(3), &encoded(3));
        assert_eq!(tier.flush(), 1);
        assert!(served(&tier, 3), "the appended entry reads back from its recorded span");

        let tier = DiskTier::new(&dir);
        assert!((0..2).chain([3]).all(|i| served(&tier, i)), "a restart reads every whole line");
        assert_eq!(tier.stats().entries, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
