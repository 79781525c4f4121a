//! Durable, content-addressed persistence of completed reports and
//! memo-cache dumps.
//!
//! Reports are addressed by [`FrameworkConfig::fingerprint`]: a completed
//! [`FrameworkOutput`] is written to `report-<fingerprint:016x>.json`
//! together with the configuration that produced it, and a lookup verifies
//! configuration equality before answering — the same collision discipline
//! as the `SimPlatform` memo cache, so a 64-bit fingerprint collision
//! degrades to a re-execution, never a wrong report.  Because every metric
//! is a finite `f64` and the JSON emitter uses Rust's shortest round-trip
//! float formatting, a report loaded from the store is **bit-identical** to
//! the one that was saved.
//!
//! Memo-cache dumps (`cache-<key hash:016x>.json`) persist the
//! `SimPlatform` evaluation cache per *platform key* (core, dynamic length,
//! seed — the parameters that determine evaluation results), so a restarted
//! daemon warm-starts repeat evaluations from disk.  A dump is a sequence
//! of chunks: [`ResultStore::append_cache`] adds one per job, holding just
//! the evaluations that job added, and [`ResultStore::save_cache`] rewrites
//! the file as a single chunk (compaction).  A load reads every chunk.
//! Both writers render a chunk from borrowed entries, one entry's value
//! tree at a time, into one buffer sized for the whole chunk; an append
//! takes the entries in their packed memo-table form and unpacks each just
//! before rendering it, so one unpacked input is alive at a time.
//!
//! # Integrity and recovery
//!
//! Every chunk ends in a one-line trailer recording the payload length and
//! its FNV-1a 64 checksum; a report is one chunk.
//! [`ResultStore::open`] checks every chunk's trailer of every file (and
//! sweeps temp files left by a crashed writer); loads parse.  So a
//! truncated or bit-flipped file is detected even when the damage still
//! parses as JSON, a torn last chunk included.  A file that fails either
//! check is **quarantined** — moved into a `quarantine/` subdirectory,
//! never deleted and never crashed on — and the lookup degrades to a miss,
//! so the daemon simply recomputes and rewrites a valid file.  A file
//! without a trailer fails the check: every writer seals what it writes.
//!
//! Reports and compacted dumps are written atomically (temp file +
//! rename); a chunk is appended with one write.  A crash mid-append leaves
//! a torn last chunk, and the next open quarantines that dump: a cold
//! cache, never a wrong result.  A store directory can be shared by
//! consecutive daemon processes but not by concurrent ones.
//! [`ResultStore::in_memory`] provides the same interface without touching
//! disk, for tests and benches.  For chaos testing, a [`FaultPlan`] seeded
//! via [`ResultStore::with_fault_plan`] can force read errors and
//! truncated, delayed or failed writes at the store seams.

use crate::fault::{FaultPlan, FaultSite};
use micrograd_codegen::GeneratorInput;
use micrograd_core::{FrameworkConfig, FrameworkOutput, Metrics, PackedInput};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The on-disk shape of one persisted report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredReport {
    /// Store format version (currently [`crate::PROTO_VERSION`]).
    pub proto: u32,
    /// The configuration fingerprint (also in the file name).
    pub fingerprint: u64,
    /// The configuration that produced the report, verified on load.
    pub config: FrameworkConfig,
    /// The completed report.
    pub output: FrameworkOutput,
}

/// The on-disk shape of one chunk of a memo-cache dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredCache {
    /// Store format version (currently [`crate::PROTO_VERSION`]).
    pub proto: u32,
    /// The platform key the entries are valid for, verified on load.
    pub platform: String,
    /// The memoized evaluations.
    pub entries: Vec<(GeneratorInput, Metrics)>,
}

/// Durable store of completed reports and memo-cache dumps.
#[derive(Debug)]
pub struct ResultStore {
    dir: Option<PathBuf>,
    fault: FaultPlan,
    /// Files moved to `quarantine/` by the startup scan or by a failed
    /// load, over this store's lifetime.
    quarantined: AtomicU64,
    // In-memory mode keeps everything here; disk mode keeps nothing
    // resident (reports are read on demand) and only serializes writers.
    reports: Mutex<HashMap<u64, StoredReport>>,
    caches: Mutex<HashMap<String, Vec<(GeneratorInput, Metrics)>>>,
}

/// `config` as the service identifies a job and its stored report: with
/// `parallelism` cleared.  The daemon picks every job's evaluation threads
/// itself, and results are bit-identical across thread counts, so two
/// configurations that differ only there are one job and one report.
pub(crate) fn job_identity(mut config: FrameworkConfig) -> FrameworkConfig {
    config.parallelism = None;
    config
}

/// The platform key a configuration's evaluations are valid under: the
/// platform parameters that determine metric values.  `parallelism` is
/// deliberately absent — it only trades wall-clock for cores.
#[must_use]
pub fn platform_key(config: &FrameworkConfig) -> String {
    format!(
        "{}:{}:{}",
        config.core.config().name,
        config.dynamic_len,
        config.seed
    )
}

fn key_hash(key: &str) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// FNV-1a 64, the store's trailer checksum.  Hand-rolled: tiny, stable
/// across builds, and needs no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The start of every trailer line.  JSON never holds a raw newline
/// followed by `#`, so the first one after a chunk's start ends its
/// payload.
const TRAILER_MARK: &str = "\n#micrograd-store v1 ";

/// Appends the integrity trailer to a serialized payload: one chunk.
fn seal(mut payload: String) -> String {
    let trailer = format!(
        "{TRAILER_MARK}len={} fnv={:016x}\n",
        payload.len(),
        fnv1a(payload.as_bytes())
    );
    payload.push_str(&trailer);
    payload
}

/// The longest trailer [`seal`] appends (a 20-digit length, a 16-digit
/// checksum): reserved with a chunk's text, so sealing never regrows it.
const TRAILER_MAX: usize = TRAILER_MARK.len() + "len= fnv=\n".len() + 20 + 16;

/// Serializes a value as pretty JSON.
fn pretty<T: Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Serializes a value into one sealed chunk.
fn sealed<T: Serialize>(value: &T) -> io::Result<String> {
    pretty(value).map(seal)
}

/// Walks a file's chunks, verifying each trailer, and returns their
/// payloads in file order.  Text after the last complete chunk (a torn
/// append, or a file never sealed) and an empty file are damage.
fn unseal(text: &str) -> Result<Vec<&str>, String> {
    let mut payloads = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let Some(at) = rest.find(TRAILER_MARK) else {
            let sealed = payloads.len();
            return Err(format!(
                "{} unsealed bytes after {sealed} sealed chunks",
                rest.len()
            ));
        };
        let (payload, trailer) = rest.split_at(at);
        let trailer = trailer.strip_prefix('\n').unwrap_or(trailer);
        let (trailer, next) = trailer.split_once('\n').unwrap_or((trailer, ""));
        verify(payload, trailer)?;
        payloads.push(payload);
        rest = next;
    }
    if payloads.is_empty() {
        return Err("empty file".into());
    }
    Ok(payloads)
}

/// Checks one chunk's payload against its trailer line.
fn verify(payload: &str, trailer: &str) -> Result<(), String> {
    let mut len: Option<usize> = None;
    let mut fnv: Option<u64> = None;
    for field in trailer.split_whitespace() {
        if let Some(v) = field.strip_prefix("len=") {
            len = v.parse().ok();
        } else if let Some(v) = field.strip_prefix("fnv=") {
            fnv = u64::from_str_radix(v, 16).ok();
        }
    }
    let (Some(len), Some(fnv)) = (len, fnv) else {
        return Err("unparseable integrity trailer".into());
    };
    if payload.len() != len {
        return Err(format!(
            "length mismatch: trailer says {len} bytes, payload has {}",
            payload.len()
        ));
    }
    let actual = fnv1a(payload.as_bytes());
    if actual != fnv {
        return Err(format!(
            "checksum mismatch: trailer says {fnv:016x}, payload hashes to {actual:016x}"
        ));
    }
    Ok(())
}

fn parse<T: Deserialize>(payload: &str) -> Result<T, String> {
    serde_json::from_str(payload).map_err(|e| format!("invalid document: {e}"))
}

/// Verifies and parses a one-document file (a report).
fn parse_sealed<T: Deserialize>(text: &str) -> Result<T, String> {
    match unseal(text)?.as_slice() {
        [payload] => parse(payload),
        chunks => Err(format!("expected one document, found {}", chunks.len())),
    }
}

/// One chunk of `key`'s dump.
fn cache_chunk(key: &str, entries: Vec<(GeneratorInput, Metrics)>) -> StoredCache {
    StoredCache {
        proto: crate::PROTO_VERSION,
        platform: key.to_owned(),
        entries,
    }
}

/// One sealed chunk of `key`'s dump, byte for byte what
/// `sealed(&cache_chunk(key, entries))` renders, without that call's value
/// tree of the whole chunk: the envelope is rendered once, then each entry
/// on its own, so one entry's tree is alive at a time.  The buffer is
/// sized for the whole chunk, trailer included, at the first entry's size
/// plus a sixteenth; should later entries run longer, it is resized for
/// the rest at the mean so far.
fn cache_chunk_text<'a, I, G>(key: &str, entries: I) -> io::Result<String>
where
    I: ExactSizeIterator<Item = (G, &'a Metrics)>,
    G: Borrow<GeneratorInput>,
{
    const CLOSE: &str = "\n  ]\n}";
    const TAIL: usize = CLOSE.len() + TRAILER_MAX;
    let malformed = || io::Error::new(io::ErrorKind::InvalidData, "unexpected chunk layout");
    let envelope = pretty(&cache_chunk(key, Vec::new()))?;
    if entries.len() == 0 {
        return Ok(seal(envelope));
    }
    // The empty envelope ends `"entries": []\n}`; entries go between the
    // brackets.
    let head = envelope.strip_suffix("]\n}").ok_or_else(malformed)?;
    let (total, mut text) = (entries.len(), head.to_owned());
    for (done, (input, metrics)) in entries.enumerate() {
        // `[[entry]]` renders the entry at the depth the chunk's `entries`
        // array holds it; between the outer `[\n  [` and `\n  ]\n]` is a
        // line break, that depth's indent and the entry, as the chunk has it.
        let entry = (input.borrow(), metrics);
        let nested = pretty(&std::slice::from_ref(&std::slice::from_ref(&entry)))?;
        let item = nested
            .strip_prefix("[\n  [")
            .and_then(|inner| inner.strip_suffix("\n  ]\n]"))
            .ok_or_else(malformed)?;
        let need = ",".len() + item.len();
        if text.capacity() - text.len() < need + TAIL {
            let mean = ((text.len() - head.len()) / done.max(1)).max(need);
            text.reserve_exact((total - done) * mean * 17 / 16 + TAIL);
        }
        if done > 0 {
            text.push(',');
        }
        text.push_str(item);
    }
    text.push_str(CLOSE);
    Ok(seal(text))
}

/// Verifies and parses every chunk of a cache dump, keeping the entries
/// recorded under `key`.
fn parse_cache(text: &str, key: &str) -> Result<Vec<(GeneratorInput, Metrics)>, String> {
    let mut entries = Vec::new();
    for payload in unseal(text)? {
        let chunk: StoredCache = parse(payload)?;
        if chunk.platform == key {
            entries.extend(chunk.entries);
        }
    }
    Ok(entries)
}

impl ResultStore {
    /// Opens (creating if needed) a store directory and scans it for
    /// damage: files with a chunk whose trailer does not verify are moved
    /// into `quarantine/` and temp files left by a crashed writer are
    /// removed.  The scan parses nothing: a sealed payload that does not
    /// parse is quarantined by its first load.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or
    /// scanned.  A damaged *file* is never an error — it is quarantined.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = ResultStore {
            dir: Some(dir),
            fault: FaultPlan::none(),
            quarantined: AtomicU64::new(0),
            reports: Mutex::new(HashMap::new()),
            caches: Mutex::new(HashMap::new()),
        };
        store.recover()?;
        Ok(store)
    }

    /// A store that never touches disk (nothing survives the process).
    #[must_use]
    pub fn in_memory() -> Self {
        ResultStore {
            dir: None,
            fault: FaultPlan::none(),
            quarantined: AtomicU64::new(0),
            reports: Mutex::new(HashMap::new()),
            caches: Mutex::new(HashMap::new()),
        }
    }

    /// Arms this store with a fault plan (chaos testing).  The startup
    /// recovery scan has already run by this point and is never faulted.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// The fault plan this store (and the daemon built on it) runs under.
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// The quarantine directory, if this store is persistent.
    #[must_use]
    pub fn quarantine_dir(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join("quarantine"))
    }

    /// Files quarantined over this store's lifetime (startup scan plus
    /// failed loads).
    #[must_use]
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    fn report_path(&self, fingerprint: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("report-{fingerprint:016x}.json")))
    }

    fn cache_path(&self, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("cache-{:016x}.json", key_hash(key))))
    }

    /// Startup scan: verify every chunk's trailer of every `report-*` and
    /// `cache-*` file, quarantine what fails, sweep stale temp files.
    /// Other files (`trace-*.json` timelines of older builds among them)
    /// are left alone.
    fn recover(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else { return Ok(()) };
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let path = entry.path();
            if name.contains(".tmp.") {
                // An interrupted atomic write; the target was never
                // renamed, so the temp holds nothing worth keeping.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            let stored = ["report-", "cache-"]
                .iter()
                .any(|prefix| name.starts_with(prefix));
            if !stored || !name.ends_with(".json") {
                continue;
            }
            let verdict = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| unseal(&text).map(drop));
            if let Err(reason) = verdict {
                self.quarantine_file(&path, &reason);
            }
        }
        Ok(())
    }

    /// Moves a damaged file aside instead of deleting it or crashing on
    /// it; subsequent lookups miss and the daemon recomputes.
    fn quarantine_file(&self, path: &Path, reason: &str) {
        let Some(quarantine) = self.quarantine_dir() else {
            return;
        };
        let Some(name) = path.file_name() else {
            return;
        };
        if std::fs::create_dir_all(&quarantine).is_err() {
            return;
        }
        match std::fs::rename(path, quarantine.join(name)) {
            Ok(()) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "store: quarantined {} ({reason})",
                    Path::new(name).display()
                );
            }
            Err(e) => eprintln!("store: failed to quarantine {}: {e}", path.display()),
        }
    }

    /// Persists a completed report under the fingerprint of its
    /// configuration, `parallelism` cleared.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.  The in-memory
    /// mode never fails.
    pub fn save_report(
        &self,
        config: &FrameworkConfig,
        output: &FrameworkOutput,
    ) -> io::Result<()> {
        let config = job_identity(config.clone());
        let fingerprint = config.fingerprint();
        let stored = StoredReport {
            proto: crate::PROTO_VERSION,
            fingerprint,
            config,
            output: output.clone(),
        };
        match self.report_path(fingerprint) {
            Some(path) => self.write_atomically(&path, &sealed(&stored)?),
            None => {
                self.reports.lock().insert(fingerprint, stored);
                Ok(())
            }
        }
    }

    /// Looks up the report previously saved for an identical configuration
    /// (`parallelism` aside).
    ///
    /// Returns `None` when nothing is stored, when the stored file fails
    /// integrity verification (it is then quarantined), or when the stored
    /// configuration differs (a fingerprint collision) — the caller then
    /// simply re-executes.
    #[must_use]
    pub fn load_report(&self, config: &FrameworkConfig) -> Option<FrameworkOutput> {
        let config = job_identity(config.clone());
        let fingerprint = config.fingerprint();
        let stored = match self.report_path(fingerprint) {
            Some(path) => {
                if self.fault.should_inject(FaultSite::StoreRead) {
                    return None;
                }
                let text = std::fs::read_to_string(&path).ok()?;
                match parse_sealed::<StoredReport>(&text) {
                    Ok(stored) => stored,
                    Err(reason) => {
                        self.quarantine_file(&path, &reason);
                        return None;
                    }
                }
            }
            None => self.reports.lock().get(&fingerprint)?.clone(),
        };
        (stored.config == config).then_some(stored.output)
    }

    /// Number of reports resident in the store.
    #[must_use]
    pub fn report_count(&self) -> u64 {
        match &self.dir {
            Some(dir) => std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .filter(|e| {
                            let name = e.file_name();
                            let name = name.to_string_lossy();
                            name.starts_with("report-") && name.ends_with(".json")
                        })
                        .count() as u64
                })
                .unwrap_or(0),
            None => self.reports.lock().len() as u64,
        }
    }

    /// Persists a memo-cache dump for a platform key as one chunk,
    /// replacing every chunk stored for that key: the compaction writer.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn save_cache(&self, key: &str, entries: Vec<(GeneratorInput, Metrics)>) -> io::Result<()> {
        match self.cache_path(key) {
            Some(path) => {
                let chunk = cache_chunk_text(key, entries.iter().map(|(input, m)| (input, m)))?;
                self.write_atomically(&path, &chunk)
            }
            None => {
                self.caches.lock().insert(key.to_owned(), entries);
                Ok(())
            }
        }
    }

    /// Appends memoized evaluations to a platform key's dump as one more
    /// chunk, with a single write on an append handle; no entries append
    /// nothing.  The entries are borrowed in their packed form — the
    /// scheduler passes them straight from the key's resident memo table —
    /// and each is unpacked only while it is rendered (or, in the in-memory
    /// mode, stored).
    ///
    /// Entries already in the dump may be appended again (two jobs of one
    /// key overlap): loads keep them, imports skip them, and compaction
    /// ([`save_cache`](Self::save_cache)) drops them.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the chunk cannot be written.  Under an
    /// injected `StoreTruncate` fault half the chunk lands, as in a crash
    /// mid-append.
    pub fn append_cache<'a, I>(&self, key: &str, entries: I) -> io::Result<()>
    where
        I: IntoIterator<Item = (&'a PackedInput, &'a Metrics)>,
        I::IntoIter: ExactSizeIterator,
    {
        let entries = entries.into_iter();
        if entries.len() == 0 {
            return Ok(());
        }
        let entries = entries.map(|(input, metrics)| (input.unpack(), metrics));
        let Some(path) = self.cache_path(key) else {
            self.caches
                .lock()
                .entry(key.to_owned())
                .or_default()
                .extend(entries.map(|(input, metrics)| (input, metrics.clone())));
            return Ok(());
        };
        let chunk = cache_chunk_text(key, entries)?;
        self.inject_write_faults()?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if self.fault.should_inject(FaultSite::StoreTruncate) {
            file.write_all(chunk.as_bytes().get(..chunk.len() / 2).unwrap_or_default())?;
            return Err(self.fault.io_error(FaultSite::StoreTruncate));
        }
        file.write_all(chunk.as_bytes())
    }

    /// Loads every chunk of the memo-cache dump for a platform key (empty
    /// when absent, recorded under a different key, or damaged — a dump
    /// with a damaged chunk is quarantined).
    #[must_use]
    pub fn load_cache(&self, key: &str) -> Vec<(GeneratorInput, Metrics)> {
        let Some(path) = self.cache_path(key) else {
            return self.caches.lock().get(key).cloned().unwrap_or_default();
        };
        if self.fault.should_inject(FaultSite::StoreRead) {
            return Vec::new();
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Vec::new();
        };
        parse_cache(&text, key).unwrap_or_else(|reason| {
            self.quarantine_file(&path, &reason);
            Vec::new()
        })
    }

    /// The fault seams every write passes first: an injected delay, then
    /// an injected `StoreWrite` failure.
    fn inject_write_faults(&self) -> io::Result<()> {
        if let Some(delay) = self.fault.write_delay() {
            std::thread::sleep(delay);
        }
        if self.fault.should_inject(FaultSite::StoreWrite) {
            return Err(self.fault.io_error(FaultSite::StoreWrite));
        }
        Ok(())
    }

    fn write_atomically(&self, path: &Path, text: &str) -> io::Result<()> {
        // Unique temp name per write: two workers persisting the same target
        // (e.g. the cache dump of a shared platform key) must not interleave
        // on one temp file — each rename then lands a complete document, and
        // concurrent saves degrade to last-writer-wins instead of corruption.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        self.inject_write_faults()?;
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        if self.fault.should_inject(FaultSite::StoreTruncate) {
            // Model a crash mid-write: commit a prefix of the document,
            // then report the failure.  The next open (or load) must
            // quarantine what landed.
            let cut = text.len() / 2;
            std::fs::write(&tmp, text.as_bytes().get(..cut).unwrap_or_default())?;
            std::fs::rename(&tmp, path)?;
            return Err(self.fault.io_error(FaultSite::StoreTruncate));
        }
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ScratchDir;
    use micrograd_core::{MetricKind, MicroGrad, StressGoal, UseCaseConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn tiny_config() -> FrameworkConfig {
        FrameworkConfig {
            use_case: UseCaseConfig::Stress {
                metric: MetricKind::Ipc,
                goal: StressGoal::Minimize,
            },
            max_epochs: 2,
            dynamic_len: 4_000,
            reference_len: 4_000,
            ..FrameworkConfig::default()
        }
    }

    fn run_tiny() -> (FrameworkConfig, FrameworkOutput) {
        let config = tiny_config();
        let output = MicroGrad::new(config.clone()).run().unwrap();
        (config, output)
    }

    #[test]
    fn disk_store_round_trips_reports_bit_identically() {
        let scratch = ScratchDir::new("store");
        let store = ResultStore::open(scratch.path()).unwrap();
        assert_eq!(store.report_count(), 0);

        let (config, output) = run_tiny();
        assert!(store.load_report(&config).is_none());
        store.save_report(&config, &output).unwrap();
        assert_eq!(store.report_count(), 1);

        let loaded = store.load_report(&config).expect("stored report");
        assert_eq!(loaded, output, "load must be bit-identical to save");
        // Equality of serialized bytes, the strictest form.
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&output).unwrap()
        );

        // A different configuration misses even with the file present.
        let mut other = config.clone();
        other.seed += 1;
        assert!(store.load_report(&other).is_none());
        // One that differs only in `parallelism` is the same report.
        let mut parallel = config.clone();
        parallel.parallelism = Some(8);
        assert_eq!(store.load_report(&parallel).as_ref(), Some(&output));

        // A second store over the same directory sees the report — the
        // durability property the service restarts rely on.
        let reopened = ResultStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.quarantined_count(), 0, "intact files stay put");
        assert_eq!(reopened.load_report(&config), Some(output));
    }

    #[test]
    fn in_memory_store_behaves_like_disk_without_files() {
        let store = ResultStore::in_memory();
        assert!(store.quarantine_dir().is_none());
        let (config, output) = run_tiny();
        store.save_report(&config, &output).unwrap();
        assert_eq!(store.report_count(), 1);
        assert_eq!(store.load_report(&config), Some(output));
    }

    #[test]
    fn cache_dumps_round_trip_per_platform_key() {
        let scratch = ScratchDir::new("cache");
        let store = ResultStore::open(scratch.path()).unwrap();
        let key = "small:4000:1";
        assert!(store.load_cache(key).is_empty());

        let entries = vec![(
            GeneratorInput::default(),
            Metrics::new().with(MetricKind::Ipc, 1.5),
        )];
        store.save_cache(key, entries.clone()).unwrap();
        assert_eq!(store.load_cache(key), entries);
        assert!(store.load_cache("large:4000:1").is_empty());

        // Replacement semantics.
        store.save_cache(key, Vec::new()).unwrap();
        assert!(store.load_cache(key).is_empty());
    }

    /// `n` distinct cache entries, numbered from `from`.
    fn cache_entries(from: u32, n: u32) -> Vec<(GeneratorInput, Metrics)> {
        (from..from + n)
            .map(|i| {
                (
                    GeneratorInput {
                        loop_size: 100 + i as usize,
                        ..GeneratorInput::default()
                    },
                    Metrics::new().with(MetricKind::Ipc, f64::from(i) / 8.0),
                )
            })
            .collect()
    }

    /// `entries` as the borrowed pairs the chunk writers take.
    fn refs<K>(entries: &[(K, Metrics)]) -> impl ExactSizeIterator<Item = (&K, &Metrics)> {
        entries.iter().map(|(input, metrics)| (input, metrics))
    }

    /// `entries` with their inputs packed, as a memo table holds them.
    fn packed(entries: &[(GeneratorInput, Metrics)]) -> Vec<(PackedInput, Metrics)> {
        entries
            .iter()
            .map(|(input, metrics)| (PackedInput::new(input), metrics.clone()))
            .collect()
    }

    #[test]
    fn streamed_chunks_equal_the_whole_chunk_rendering_byte_for_byte() {
        // Names that need escaping, a newline among them, and that grow:
        // later entries outrun the buffer sized from the first.
        let entries: Vec<_> = cache_entries(0, 40)
            .into_iter()
            .enumerate()
            .map(|(i, (mut input, metrics))| {
                input.name = format!("q\"b\\n\nt\t\u{1} é {}", "x".repeat(i * 40));
                (
                    input,
                    metrics.with(MetricKind::DynamicPower, 1.0 / (i as f64 + 3.0)),
                )
            })
            .collect();
        for key in ["large:4000:1", "a \"key\"\n"] {
            for n in [0, 1, 2, 40] {
                let entries = &entries[..n];
                let streamed = cache_chunk_text(key, refs(entries)).unwrap();
                let whole = sealed(&cache_chunk(key, entries.to_vec())).unwrap();
                assert_eq!(streamed, whole, "{n} entries under {key:?}");
                let packed = packed(entries);
                let unpacked = packed.iter().map(|(input, m)| (input.unpack(), m));
                assert_eq!(cache_chunk_text(key, unpacked).unwrap(), whole);
                assert_eq!(parse_cache(&streamed, key).unwrap(), entries);
            }
        }
    }

    #[test]
    fn appended_chunks_round_trip_and_survive_reopen() {
        let scratch = ScratchDir::new("chunks");
        let key = "small:4000:1";
        let (first, second) = (cache_entries(0, 3), cache_entries(3, 2));
        {
            let store = ResultStore::open(scratch.path()).unwrap();
            store.append_cache(key, refs(&packed(&first))).unwrap();
            store.append_cache(key, refs(&packed(&[]))).unwrap();
            store.append_cache(key, refs(&packed(&second))).unwrap();
            let text = std::fs::read_to_string(store.cache_path(key).unwrap()).unwrap();
            assert_eq!(
                text.matches(TRAILER_MARK).count(),
                2,
                "an empty append adds nothing"
            );
            assert_eq!(
                store.load_cache(key),
                [first.clone(), second.clone()].concat()
            );
            assert!(store.load_cache("large:4000:1").is_empty());
        }
        let store = ResultStore::open(scratch.path()).unwrap();
        assert_eq!(store.quarantined_count(), 0, "intact chunks stay put");
        let all = [first, second].concat();
        assert_eq!(store.load_cache(key), all);

        // Compaction rewrites the dump as one chunk, which takes appends.
        store.save_cache(key, all.clone()).unwrap();
        let text = std::fs::read_to_string(store.cache_path(key).unwrap()).unwrap();
        assert_eq!(text.matches(TRAILER_MARK).count(), 1);
        store
            .append_cache(key, refs(&packed(&cache_entries(5, 1))))
            .unwrap();
        assert_eq!(store.load_cache(key), cache_entries(0, 6));
    }

    #[test]
    fn a_torn_append_is_quarantined_at_open_and_at_load() {
        use crate::fault::{FaultPlan, FaultSite};
        let key = "small:4000:1";
        // One intact chunk, then half of a second one.
        let torn = |name: &str| {
            let scratch = ScratchDir::new(name);
            ResultStore::open(scratch.path())
                .unwrap()
                .append_cache(key, refs(&packed(&cache_entries(0, 3))))
                .unwrap();
            let store = ResultStore::open(scratch.path())
                .unwrap()
                .with_fault_plan(FaultPlan::new(3).with_fault(FaultSite::StoreTruncate, 1.0, 1));
            let err = store
                .append_cache(key, refs(&packed(&cache_entries(3, 3))))
                .unwrap_err();
            assert!(err.to_string().contains("store-truncate"));
            let path = store.cache_path(key).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.matches(TRAILER_MARK).count(), 1, "the second is torn");
            (scratch, store, path)
        };

        let (_scratch, store, path) = torn("torn-load");
        assert!(
            store.load_cache(key).is_empty(),
            "damage degrades to a miss"
        );
        assert_eq!(store.quarantined_count(), 1);
        assert!(!path.exists());

        let (scratch, store, path) = torn("torn-open");
        drop(store);
        let reopened = ResultStore::open(scratch.path()).unwrap();
        assert_eq!(reopened.quarantined_count(), 1);
        assert!(!path.exists());
        assert!(reopened.load_cache(key).is_empty());
    }

    #[test]
    fn a_bit_flip_in_the_first_of_two_chunks_quarantines_the_dump() {
        let scratch = ScratchDir::new("chunk-flip");
        let store = ResultStore::open(scratch.path()).unwrap();
        let key = "small:4000:1";
        store
            .append_cache(key, refs(&packed(&cache_entries(0, 2))))
            .unwrap();
        store
            .append_cache(key, refs(&packed(&cache_entries(2, 2))))
            .unwrap();
        let path = store.cache_path(key).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes
            .iter()
            .position(u8::is_ascii_digit)
            .expect("a digit to damage");
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_cache(key).is_empty());
        assert_eq!(store.quarantined_count(), 1);
        assert!(!path.exists());
    }

    #[test]
    fn the_open_scan_checks_seals_and_the_first_load_parses() {
        let scratch = ScratchDir::new("seal-only");
        let key = "small:4000:1";
        let path = {
            let store = ResultStore::open(scratch.path()).unwrap();
            store.cache_path(key).unwrap()
        };
        std::fs::write(&path, seal("{ not a dump".to_owned())).unwrap();
        let store = ResultStore::open(scratch.path()).unwrap();
        assert_eq!(store.quarantined_count(), 0, "the trailer verifies");
        assert!(path.exists());
        assert!(store.load_cache(key).is_empty());
        assert_eq!(store.quarantined_count(), 1, "the payload does not parse");
        assert!(!path.exists());
    }

    #[test]
    fn in_memory_store_appends_cache_chunks() {
        let store = ResultStore::in_memory();
        let key = "small:4000:1";
        store
            .append_cache(key, refs(&packed(&cache_entries(0, 2))))
            .unwrap();
        store
            .append_cache(key, refs(&packed(&cache_entries(2, 1))))
            .unwrap();
        assert_eq!(store.load_cache(key), cache_entries(0, 3));
        store.save_cache(key, cache_entries(0, 1)).unwrap();
        assert_eq!(store.load_cache(key), cache_entries(0, 1));
    }

    #[test]
    fn platform_key_tracks_evaluation_relevant_fields_only() {
        let config = tiny_config();
        let key = platform_key(&config);
        assert_eq!(key, "large:4000:1");

        let mut parallel = config.clone();
        parallel.parallelism = Some(8);
        assert_eq!(platform_key(&parallel), key, "parallelism is not identity");

        let mut reseeded = config;
        reseeded.seed = 9;
        assert_ne!(platform_key(&reseeded), key);
    }

    #[test]
    fn corrupt_report_files_degrade_to_a_miss_and_are_quarantined() {
        let scratch = ScratchDir::new("corrupt");
        let store = ResultStore::open(scratch.path()).unwrap();
        let (config, output) = run_tiny();
        store.save_report(&config, &output).unwrap();
        let path = store.report_path(config.fingerprint()).unwrap();
        std::fs::write(&path, "{ not json").unwrap();
        assert!(store.load_report(&config).is_none());
        assert_eq!(store.quarantined_count(), 1);
        assert!(!path.exists(), "damaged file was moved aside");
        let quarantined = store
            .quarantine_dir()
            .unwrap()
            .join(path.file_name().unwrap());
        assert!(quarantined.exists(), "damaged file is preserved");
    }

    #[test]
    fn trailer_catches_a_single_bit_flip() {
        let scratch = ScratchDir::new("bitflip");
        let store = ResultStore::open(scratch.path()).unwrap();
        let (config, output) = run_tiny();
        store.save_report(&config, &output).unwrap();
        let path = store.report_path(config.fingerprint()).unwrap();

        // Flip one bit inside a numeric literal of the payload: the result
        // is still valid JSON, so only the checksum can catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes
            .iter()
            .position(|b| b.is_ascii_digit())
            .expect("a digit to damage");
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        assert!(store.load_report(&config).is_none());
        assert_eq!(store.quarantined_count(), 1);
    }

    #[test]
    fn startup_scan_quarantines_truncated_files_and_sweeps_temps() {
        let scratch = ScratchDir::new("recover");
        let (config, output) = run_tiny();
        let key = platform_key(&config);
        let (report_path, cache_path, temp_path);
        {
            let store = ResultStore::open(scratch.path()).unwrap();
            store.save_report(&config, &output).unwrap();
            store.save_cache(&key, Vec::new()).unwrap();
            report_path = store.report_path(config.fingerprint()).unwrap();
            cache_path = store.cache_path(&key).unwrap();
            temp_path = report_path.with_extension("tmp.99.0");
        }
        // Truncate both committed files and plant a stale temp file, as a
        // crash mid-write would.
        for path in [&report_path, &cache_path] {
            let text = std::fs::read_to_string(path).unwrap();
            std::fs::write(path, &text[..text.len() / 2]).unwrap();
        }
        std::fs::write(&temp_path, "partial").unwrap();

        let store = ResultStore::open(scratch.path()).unwrap();
        assert_eq!(store.quarantined_count(), 2);
        assert!(!report_path.exists());
        assert!(!cache_path.exists());
        assert!(!temp_path.exists(), "stale temp files are swept");
        assert!(store.load_report(&config).is_none(), "degrades to a miss");
        assert!(store.load_cache(&key).is_empty());

        // The daemon's recovery story: recompute and rewrite a valid file.
        store.save_report(&config, &output).unwrap();
        assert_eq!(store.load_report(&config), Some(output));
    }

    #[test]
    fn a_whole_report_without_its_trailer_is_quarantined_at_open() {
        let scratch = ScratchDir::new("unsealed");
        let (config, output) = run_tiny();
        let path = {
            let store = ResultStore::open(scratch.path()).unwrap();
            store.save_report(&config, &output).unwrap();
            store.report_path(config.fingerprint()).unwrap()
        };
        // Strip the trailer: what is left is the whole, parseable report.
        let text = std::fs::read_to_string(&path).unwrap();
        let payload = &text[..text.find(TRAILER_MARK).unwrap()];
        assert!(parse::<StoredReport>(payload).is_ok());
        std::fs::write(&path, payload).unwrap();

        let store = ResultStore::open(scratch.path()).unwrap();
        assert_eq!(store.quarantined_count(), 1);
        assert!(!path.exists());
        assert!(store.load_report(&config).is_none(), "degrades to a miss");
    }

    #[test]
    fn injected_write_faults_surface_and_exhaust() {
        use crate::fault::{FaultPlan, FaultSite};
        let scratch = ScratchDir::new("fault-write");
        let (config, output) = run_tiny();
        let plan = FaultPlan::new(11).with_fault(FaultSite::StoreWrite, 1.0, 1);
        let store = ResultStore::open(scratch.path())
            .unwrap()
            .with_fault_plan(plan.clone());

        let err = store.save_report(&config, &output).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert!(store.load_report(&config).is_none(), "nothing landed");

        // The budget is spent; the retry succeeds.
        store.save_report(&config, &output).unwrap();
        assert_eq!(store.load_report(&config), Some(output));
        assert_eq!(plan.injections(FaultSite::StoreWrite), 1);
    }

    #[test]
    fn injected_truncation_commits_damage_that_recovery_catches() {
        use crate::fault::{FaultPlan, FaultSite};
        let scratch = ScratchDir::new("fault-trunc");
        let (config, output) = run_tiny();
        let store = ResultStore::open(scratch.path())
            .unwrap()
            .with_fault_plan(FaultPlan::new(3).with_fault(FaultSite::StoreTruncate, 1.0, 1));

        let err = store.save_report(&config, &output).unwrap_err();
        assert!(err.to_string().contains("store-truncate"));
        assert_eq!(store.report_count(), 1, "a damaged file did land");

        // The load detects the damage, quarantines, and misses.
        assert!(store.load_report(&config).is_none());
        assert_eq!(store.quarantined_count(), 1);

        // Recompute-and-rewrite heals the store.
        store.save_report(&config, &output).unwrap();
        assert_eq!(store.load_report(&config), Some(output));
    }

    #[test]
    fn injected_read_faults_degrade_to_a_miss_without_quarantine() {
        use crate::fault::{FaultPlan, FaultSite};
        let scratch = ScratchDir::new("fault-read");
        let (config, output) = run_tiny();
        let store = ResultStore::open(scratch.path())
            .unwrap()
            .with_fault_plan(FaultPlan::new(5).with_fault(FaultSite::StoreRead, 1.0, 1));
        store.save_report(&config, &output).unwrap();

        assert!(store.load_report(&config).is_none(), "read fault misses");
        assert_eq!(store.quarantined_count(), 0, "the file is fine");
        assert_eq!(store.load_report(&config), Some(output), "then recovers");
    }

    /// JSON fragments a mutation splices in: structure, literals, numbers
    /// past every integer and float range, and a string the trailer walk
    /// looks for.
    const TOKENS: [&str; 14] = [
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"",
        "null",
        "-0",
        "1e999",
        "18446744073709551616",
        "-9223372036854775809",
        "\n#",
        "\"proto\": 2",
    ];

    /// Applies one to four random mutations to `bytes`: bit flips,
    /// truncations, deletions of up to 15 bytes and inserted tokens.
    fn mutate(rng: &mut ChaCha8Rng, bytes: &[u8]) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..4) {
                0 => {
                    if let Some(byte) = bytes.get_mut(at) {
                        *byte ^= 1 << rng.gen_range(0..8);
                    }
                }
                1 => bytes.truncate(at),
                2 => {
                    let end = (at + rng.gen_range(1..16)).min(bytes.len());
                    bytes.drain(at..end);
                }
                _ => {
                    let token = TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
                    bytes.splice(at..at, token.iter().copied());
                }
            }
        }
        bytes
    }

    #[test]
    fn resealed_mutated_payloads_reach_the_parsers_and_never_panic() {
        // A mutated payload sealed again verifies, so the JSON parsers see
        // it: a report, and the second chunk of a two-chunk cache dump.
        let (config, output) = run_tiny();
        let key = platform_key(&config);
        let report = pretty(&StoredReport {
            proto: crate::PROTO_VERSION,
            fingerprint: config.fingerprint(),
            config,
            output,
        })
        .unwrap();
        let first = seal(pretty(&cache_chunk(&key, cache_entries(0, 3))).unwrap());
        let second = pretty(&cache_chunk(&key, cache_entries(3, 2))).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EA1_F022);
        let (mut reports, mut dumps) = (0, 0);
        for case in 0..600 {
            let payload =
                String::from_utf8_lossy(&mutate(&mut rng, report.as_bytes())).into_owned();
            reports += usize::from(parse_sealed::<StoredReport>(&seal(payload)).is_ok());
            let payload =
                String::from_utf8_lossy(&mutate(&mut rng, second.as_bytes())).into_owned();
            let dump = format!("{first}{}", seal(payload));
            if let Ok(entries) = parse_cache(&dump, &key) {
                // Every entry of the intact chunk, then what the mutated
                // one still holds under the key.
                assert_eq!(entries[..3], cache_entries(0, 3)[..], "case {case}");
                dumps += 1;
            }
        }
        // Most mutations break the JSON; a few survive (a flipped digit, a
        // deleted space), so both outcomes are reached.
        assert!(
            reports > 0 && dumps > 0 && reports + dumps < 600,
            "{reports} reports, {dumps} dumps parsed"
        );
    }

    #[test]
    fn mutated_store_files_load_intact_or_end_in_a_miss() {
        let scratch = ScratchDir::new("fuzz-files");
        let (config, output) = run_tiny();
        let key = platform_key(&config);
        let entries = cache_entries(0, 5);
        let (report_path, cache_path) = {
            let store = ResultStore::open(scratch.path()).unwrap();
            store.save_report(&config, &output).unwrap();
            store
                .append_cache(&key, refs(&packed(&entries[..3])))
                .unwrap();
            store
                .append_cache(&key, refs(&packed(&entries[3..])))
                .unwrap();
            (
                store.report_path(config.fingerprint()).unwrap(),
                store.cache_path(&key).unwrap(),
            )
        };
        let report = std::fs::read(&report_path).unwrap();
        let cache = std::fs::read(&cache_path).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0xF11E_5EED);
        for case in 0..150 {
            std::fs::write(&report_path, mutate(&mut rng, &report)).unwrap();
            std::fs::write(&cache_path, mutate(&mut rng, &cache)).unwrap();
            let store = ResultStore::open(scratch.path()).unwrap();
            // What loads is what was saved, or for the dump its whole
            // first chunk, cut at its trailer; a damaged file is a miss,
            // quarantined by the open scan or by the load.
            match store.load_report(&config) {
                Some(loaded) => assert_eq!(loaded, output, "case {case}"),
                None => assert!(!report_path.exists(), "case {case}: report kept"),
            }
            let loaded = store.load_cache(&key);
            assert!(
                [0, 3, 5].contains(&loaded.len()) && loaded[..] == entries[..loaded.len()],
                "case {case}: {} entries",
                loaded.len()
            );
            assert!(
                !loaded.is_empty() || !cache_path.exists(),
                "case {case}: dump kept"
            );
        }
    }
}
