//! Evaluation platforms: where generated test cases are executed.

use crate::memo::MemoTable;
use crate::{Metrics, MicroGradError};
use micrograd_codegen::{
    Generator, GeneratorInput, Keystream, StreamingExpander, TestCase, Trace, TraceSource,
};
use micrograd_isa::Opcode;
use micrograd_power::{PowerConfig, PowerModel};
use micrograd_sim::{CancelToken, CoreConfig, SimStats, Simulator};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// An execution platform MicroGrad can evaluate test cases on.
///
/// The paper interfaces with performance simulators (Gem5), power estimators
/// (McPAT) and native hardware; each of those is one implementation of this
/// trait.  This crate ships [`SimPlatform`] (the bundled simulator plus
/// power model); a hardware-counter backend would implement the same trait.
pub trait ExecutionPlatform {
    /// Platform name, for reporting.
    fn name(&self) -> &str;

    /// Generates the test case for `input`, runs it, and returns its metric
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns a [`MicroGradError`] if code generation fails.
    fn evaluate(&self, input: &GeneratorInput) -> Result<Metrics, MicroGradError>;

    /// Evaluates a batch of independent generator inputs, returning one
    /// result per input, in input order.
    ///
    /// This is the scaling interface of the framework: all tuners submit
    /// their independent evaluations (gradient ladder probes, GA
    /// generations, brute-force grid chunks, random samples) through this
    /// method, so a platform that can run evaluations concurrently — like
    /// [`SimPlatform`] with a `parallelism` setting, or a future
    /// distributed backend — speeds up every tuning mechanism at once.
    ///
    /// The default implementation evaluates sequentially via
    /// [`evaluate`](Self::evaluate), so existing platform implementations
    /// keep working unchanged.  Implementations must preserve input order
    /// and per-input results regardless of internal scheduling.
    fn evaluate_batch(&self, inputs: &[GeneratorInput]) -> Vec<Result<Metrics, MicroGradError>> {
        inputs.iter().map(|input| self.evaluate(input)).collect()
    }

    /// Checks whether the run driving this platform has been cancelled.
    ///
    /// Tuners call this at epoch boundaries (through the shared evaluation
    /// scheduler), so a platform with a cancellation source — like
    /// [`SimPlatform::with_cancel_token`] — can abort a long tuning run
    /// cooperatively.  The default implementation never cancels, so
    /// existing platforms keep working unchanged.
    ///
    /// # Errors
    ///
    /// [`MicroGradError::Cancelled`] once the platform's cancellation
    /// source has fired.
    fn check_cancelled(&self) -> Result<(), MicroGradError> {
        Ok(())
    }

    /// Measures the metric vector of a streaming dynamic-instruction source
    /// (used to characterize reference applications for cloning targets).
    ///
    /// This is the scaling form of reference characterization: the source
    /// yields instructions on demand, so a 100 M-instruction reference can
    /// be measured without ever materializing its trace.
    fn measure_source(&self, source: &mut dyn TraceSource) -> Metrics;

    /// Measures the metric vector of an existing materialized trace.
    ///
    /// Provided in terms of [`measure_source`](Self::measure_source) via
    /// [`Trace::source`]; platforms only implement the streaming form.
    fn measure_trace(&self, trace: &Trace) -> Metrics {
        self.measure_source(&mut trace.source())
    }
}

/// Counters of the [`SimPlatform`] memoization cache.
///
/// A *hit* returns stored metrics without simulating; a *miss* pays a full
/// generate-and-simulate evaluation (a 64-bit fingerprint collision whose
/// stored input differs also counts as a miss — it is recomputed); an
/// *insert* stores a freshly computed result (or an imported one), and a
/// *replacement* is an insert that displaced a resident entry of another
/// input (see [`crate::memo::MemoTable`]).  These four count the
/// platform's own operations.  `entries` (memoized evaluations resident)
/// and `capacity` (the fixed slot count) describe the table, which the
/// platform may share with others ([`SimPlatform::with_cache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Evaluations answered from the cache.
    pub hits: u64,
    /// Evaluations that had to be computed.
    pub misses: u64,
    /// Results inserted into the cache.
    pub inserts: u64,
    /// Entries currently memoized.
    pub entries: u64,
    /// Resident entries this platform's inserts displaced.
    #[serde(default)]
    pub replacements: u64,
    /// Slot capacity of the memo table (0 when unknown/aggregated).
    #[serde(default)]
    pub capacity: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0.0 when idle).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// An observer of batch-evaluation progress.
///
/// [`SimPlatform`] invokes it once at the start of every
/// [`evaluate_batch`](ExecutionPlatform::evaluate_batch) call with the
/// batch size.  Every tuner submits its epoch evaluations through
/// `Evaluator::evaluate_many` — the tuner-epoch cancellation boundary — so
/// a batch boundary *is* an epoch boundary: the observability layer hangs
/// per-epoch progress marks (job timelines, epoch counters) off this hook
/// without touching any tuning mechanism.
///
/// The callback must be cheap and non-blocking; it runs on the thread
/// driving the tuning run.  A newtype over the callback so [`SimPlatform`]
/// can keep deriving `Debug`.
#[derive(Clone)]
pub struct ProgressObserver(Arc<dyn Fn(usize) + Send + Sync>);

impl ProgressObserver {
    /// Wraps a callback receiving the batch size at each batch boundary.
    pub fn new(callback: impl Fn(usize) + Send + Sync + 'static) -> Self {
        ProgressObserver(Arc::new(callback))
    }

    /// Notifies the observer of a batch of `evaluations` starting.
    pub fn batch_started(&self, evaluations: usize) {
        (self.0)(evaluations);
    }
}

impl std::fmt::Debug for ProgressObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressObserver(..)")
    }
}

/// A stable 64-bit fingerprint of a generator input, used as the
/// memoization key.
///
/// The previous implementation keyed the cache on
/// `serde_json::to_string(input)` — an allocation per lookup, and a silent
/// cache bypass whenever serialization failed.  Hashing the fields directly
/// (with `f64::to_bits` for float knobs) is allocation-free and total.
/// Cache hits additionally verify the stored input for equality, so a hash
/// collision degrades to a recomputation instead of wrong metrics.
#[must_use]
pub(crate) fn input_fingerprint(input: &GeneratorInput) -> u64 {
    // Exhaustive destructuring (no `..`): adding a field to
    // `GeneratorInput` must fail to compile here rather than silently
    // fall out of the cache key.
    let GeneratorInput {
        loop_size,
        instr_weights,
        reg_dependency_distance,
        mem_footprint_kb,
        mem_stride,
        mem_temporal_window,
        mem_temporal_period,
        branch_randomness,
        init_reg_value,
        seed,
        name,
    } = input;
    let mut h = DefaultHasher::new();
    loop_size.hash(&mut h);
    for (op, w) in instr_weights {
        op.hash(&mut h);
        w.to_bits().hash(&mut h);
    }
    reg_dependency_distance.hash(&mut h);
    mem_footprint_kb.hash(&mut h);
    mem_stride.hash(&mut h);
    mem_temporal_window.hash(&mut h);
    mem_temporal_period.hash(&mut h);
    branch_randomness.to_bits().hash(&mut h);
    init_reg_value.hash(&mut h);
    seed.hash(&mut h);
    name.hash(&mut h);
    h.finish()
}

/// A generator input packed into the bytes a memo entry keys on.
///
/// A memo table holds every evaluation of its platform, so its entries are
/// what a long-lived platform's heap grows with.  The packed form holds a
/// resolved full-space input in about 58 bytes of one allocation, where
/// the input itself takes its 120-byte body, a weight-map node and its
/// name.  The encoding is canonical and prefix-free, field by field in
/// declaration order:
///
/// * integers as unsigned LEB128 (`init_reg_value` by its two's-complement
///   bits);
/// * a float as one byte when it is an integer 0..=127 whose bits equal
///   the float's, otherwise the byte `0x80` and its `to_bits` (8 bytes,
///   little-endian), so `-0.0`, NaN payloads and infinities round-trip;
/// * the weights as their count, then each opcode's index in
///   [`Opcode::ALL`] and its weight, in map order;
/// * the name as its length and UTF-8 bytes.
///
/// Two inputs therefore pack to the same bytes exactly when every field is
/// bit-identical.  A hit compares the stored bytes with the probed input
/// as it packs, without building them ([`PartialEq<GeneratorInput>`]); an
/// entry is unpacked only when the cache is exported or persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedInput(Box<[u8]>);

/// The marker of a float stored by its bits.
const FLOAT_BITS: u8 = 0x80;

impl PackedInput {
    /// Packs `input`.
    #[must_use]
    pub fn new(input: &GeneratorInput) -> Self {
        // Measured first, so the key is one allocation of exactly its bytes.
        let mut len = 0;
        pack(input, &mut |bytes| len += bytes.len());
        let mut packed = Vec::with_capacity(len);
        pack(input, &mut |bytes| packed.extend_from_slice(bytes));
        PackedInput(packed.into_boxed_slice())
    }

    /// The packed bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Unpacks the input, bit for bit the one that was packed.
    #[must_use]
    pub fn unpack(&self) -> GeneratorInput {
        // Each integer was packed from the type it is cast back to.
        let mut bytes = Unpack(&self.0);
        let input = GeneratorInput {
            loop_size: bytes.uint() as usize,
            instr_weights: (0..bytes.uint())
                .map(|_| (Opcode::ALL[usize::from(bytes.byte())], bytes.float()))
                .collect(),
            reg_dependency_distance: bytes.uint() as u32,
            mem_footprint_kb: bytes.uint(),
            mem_stride: bytes.uint(),
            mem_temporal_window: bytes.uint(),
            mem_temporal_period: bytes.uint(),
            branch_randomness: bytes.float(),
            init_reg_value: bytes.uint() as i64,
            seed: bytes.uint(),
            name: {
                let len = bytes.uint() as usize;
                String::from_utf8(bytes.take(len).to_vec()).expect("a packed name is UTF-8")
            },
        };
        debug_assert!(bytes.0.is_empty(), "every packed byte is read");
        input
    }
}

impl PartialEq<GeneratorInput> for PackedInput {
    /// Whether `input` packs to these bytes, compared as it packs.
    fn eq(&self, input: &GeneratorInput) -> bool {
        let mut rest: &[u8] = &self.0;
        let mut equal = true;
        pack(input, &mut |bytes| match rest.strip_prefix(bytes) {
            Some(tail) => rest = tail,
            None => {
                equal = false;
                rest = &[];
            }
        });
        equal && rest.is_empty()
    }
}

/// Hands `input`'s packed encoding (see [`PackedInput`]) to `put`, a few
/// bytes at a time.
fn pack(input: &GeneratorInput, put: &mut impl FnMut(&[u8])) {
    // Exhaustive destructuring, as in `input_fingerprint`: a new field must
    // be packed, or two inputs that differ in it would share an entry.
    let GeneratorInput {
        loop_size,
        instr_weights,
        reg_dependency_distance,
        mem_footprint_kb,
        mem_stride,
        mem_temporal_window,
        mem_temporal_period,
        branch_randomness,
        init_reg_value,
        seed,
        name,
    } = input;
    put_uint(put, *loop_size as u64);
    put_uint(put, instr_weights.len() as u64);
    for (op, weight) in instr_weights {
        put(&[*op as u8]);
        put_float(put, *weight);
    }
    put_uint(put, u64::from(*reg_dependency_distance));
    for n in [
        mem_footprint_kb,
        mem_stride,
        mem_temporal_window,
        mem_temporal_period,
    ] {
        put_uint(put, *n);
    }
    put_float(put, *branch_randomness);
    put_uint(put, *init_reg_value as u64);
    put_uint(put, *seed);
    put_uint(put, name.len() as u64);
    put(name.as_bytes());
}

/// Unsigned LEB128: seven bits a byte, low first, the high bit set on all
/// but the last.
fn put_uint(put: &mut impl FnMut(&[u8]), mut n: u64) {
    let mut buf = [0u8; 10];
    let mut len = 0;
    while n >= 0x80 {
        buf[len] = n as u8 | 0x80;
        n >>= 7;
        len += 1;
    }
    buf[len] = n as u8;
    put(&buf[..=len]);
}

fn put_float(put: &mut impl FnMut(&[u8]), x: f64) {
    let small = x as u8;
    if small < FLOAT_BITS && f64::from(small).to_bits() == x.to_bits() {
        put(&[small]);
    } else {
        put(&[FLOAT_BITS]);
        put(&x.to_bits().to_le_bytes());
    }
}

/// A cursor over packed bytes.  The bytes were written by [`pack`], so
/// every read finds what it expects.
struct Unpack<'a>(&'a [u8]);

impl Unpack<'_> {
    fn take(&mut self, n: usize) -> &[u8] {
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        head
    }

    fn byte(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn uint(&mut self) -> u64 {
        let mut n = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte();
            n |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
        }
        n
    }

    fn float(&mut self) -> f64 {
        match self.byte() {
            FLOAT_BITS => {
                let bits = self.take(8).try_into().expect("eight bytes");
                f64::from_bits(u64::from_le_bytes(bits))
            }
            small => f64::from(small),
        }
    }
}

/// The bundled evaluation platform: Microprobe-like code generation, the
/// cycle-approximate simulator and the activity-based power model.
///
/// Evaluations are memoized per generator input (keyed by a stable `u64`
/// fingerprint), because gradient-descent epochs repeatedly re-evaluate the
/// epoch's base configuration.  The memo store is a lock-free fixed-capacity
/// probing table ([`crate::memo::MemoTable`]): lookups are a handful of
/// atomic loads, inserts never rehash, and colliding inserts replace the
/// resident entry (a replaced evaluation is simply recomputed on its next
/// use).  An entry keeps its input as a [`PackedInput`] and its metrics
/// inline, about 186 bytes in two allocations for a full-space input.
/// Hits verify the full stored input, so a 64-bit fingerprint collision
/// can never return wrong metrics.  A hit builds no simulator and
/// allocates nothing.
///
/// Each platform owns a table by default, allocated on its first use.
/// [`with_cache`](Self::with_cache) shares one `Arc`-held table among
/// platforms instead, and then the platform allocates none: the service
/// keeps one per platform key, and every job of that key evaluates on it.
/// Shared use is sound because every evaluation is a pure, seeded function
/// of its input: platforms that share a table must have the same core,
/// `dynamic_len` and seed, and then produce exactly the results they would
/// on tables of their own.
///
/// # Shared keystream
///
/// Every evaluation expands its test case with the platform's seed, so all
/// of them draw the same ChaCha8 words.  The platform computes those words
/// once, as a [`Keystream`] of `min(4 × dynamic_len, 2^18)` words (16 B
/// per dynamic instruction, at most 1 MiB), and every evaluation reads it
/// by index; a longer evaluation computes the words past its end.  The
/// keystream is built on the first miss, never by [`new`](Self::new), is
/// shared by every batch thread, and is freed with the platform.
/// [`with_seed`](Self::with_seed) and
/// [`with_dynamic_len`](Self::with_dynamic_len) drop it.
///
/// # Parallelism
///
/// [`evaluate_batch`](ExecutionPlatform::evaluate_batch) evaluates on the
/// calling thread plus scoped helper threads, as set by
/// [`with_parallelism`](Self::with_parallelism):
///
/// * `None` evaluates sequentially on the calling thread;
/// * `Some(n)` uses up to `n` threads: the caller and `n - 1` helpers;
/// * `Some(0)` borrows its helpers from one process-wide count of spare
///   cores (`available_parallelism() - 1`).  A batch takes what is free
///   without blocking, possibly nothing, and returns it when it ends, so
///   a lone batch uses every core while concurrent batches together never
///   add more than the spare cores to their calling threads.
///
/// Each thread owns one reusable [`Simulator`] for the whole batch, built
/// on its first miss (runs reset state instead of reallocating it), and
/// duplicate inputs within one batch are evaluated only once.  Results are
/// identical to sequential evaluation regardless of the thread count:
/// every evaluation is a pure, seeded function of its input.
#[derive(Debug)]
pub struct SimPlatform {
    core: CoreConfig,
    power: PowerConfig,
    dynamic_len: usize,
    seed: u64,
    parallelism: Option<usize>,
    cancel: CancelToken,
    progress: Option<ProgressObserver>,
    /// The memo table; a platform's own is allocated on first use.
    cache: OnceLock<Arc<MemoTable<PackedInput, Metrics>>>,
    /// Slot capacity of the platform's own table.
    cache_capacity: usize,
    /// The expansion words of `seed`, built on the first miss.
    keystream: OnceLock<Arc<Keystream>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_inserts: AtomicU64,
    cache_replacements: AtomicU64,
}

impl SimPlatform {
    /// Default number of dynamic instructions per evaluation.
    ///
    /// The paper runs 10 M dynamic instructions per test case on Gem5; the
    /// bundled simulator defaults to 50 k, which keeps a full tuning run in
    /// the seconds range while the test case (a ~500-instruction loop)
    /// still reaches steady state.  Use [`with_dynamic_len`] to change it.
    ///
    /// [`with_dynamic_len`]: SimPlatform::with_dynamic_len
    pub const DEFAULT_DYNAMIC_LEN: usize = 50_000;

    /// Default slot capacity of the memoization table.
    ///
    /// 64 Ki slots comfortably hold the largest bundled tuning runs
    /// (brute-force grids included) while costing half a megabyte of bucket
    /// pointers; overflow degrades gracefully to replacement, never to an
    /// error.  Use [`with_cache_capacity`](Self::with_cache_capacity) to
    /// change it.
    pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

    /// Creates a platform for a core configuration, choosing the matching
    /// power-model preset.
    #[must_use]
    pub fn new(core: CoreConfig) -> Self {
        let power = PowerConfig::for_core(&core.name);
        SimPlatform {
            core,
            power,
            dynamic_len: Self::DEFAULT_DYNAMIC_LEN,
            seed: 1,
            parallelism: None,
            cancel: CancelToken::never(),
            progress: None,
            cache: OnceLock::new(),
            cache_capacity: Self::DEFAULT_CACHE_CAPACITY,
            keystream: OnceLock::new(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_inserts: AtomicU64::new(0),
            cache_replacements: AtomicU64::new(0),
        }
    }

    /// Replaces the memoization table with an empty one of at least
    /// `capacity` slots (rounded up to a power of two, minimum 1).
    ///
    /// Intended for construction time; any memoized evaluations are
    /// discarded.  Tiny capacities are valid — they force collisions, which
    /// the tests use to exercise the replacement path.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = OnceLock::new();
        self.cache_capacity = capacity;
        self
    }

    /// Evaluates on a shared memoization table instead of the platform's
    /// own.  Every platform sharing `cache` must have the same core,
    /// `dynamic_len` and seed (see the type docs); the platform's counters
    /// stay its own.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<MemoTable<PackedInput, Metrics>>) -> Self {
        self.cache = OnceLock::from(cache);
        self
    }

    /// Sets the number of dynamic instructions per evaluation.
    #[must_use]
    pub fn with_dynamic_len(mut self, dynamic_len: usize) -> Self {
        self.dynamic_len = dynamic_len;
        self.keystream = OnceLock::new();
        self
    }

    /// Sets the evaluation seed (trace expansion and generation).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.keystream = OnceLock::new();
        self
    }

    /// Sets the batch-evaluation thread count: `None` for sequential
    /// evaluation, `Some(n)` for up to `n` threads, `Some(0)` for the
    /// calling thread plus whatever spare cores of the process are free
    /// (see "Parallelism" above).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The configured batch-evaluation worker setting.
    #[must_use]
    pub fn parallelism(&self) -> Option<usize> {
        self.parallelism
    }

    /// Seeds a cooperative cancellation token into the platform.
    ///
    /// The token is polled before every evaluation, at tuner epoch
    /// boundaries (via [`ExecutionPlatform::check_cancelled`]) and every
    /// few thousand simulated instructions
    /// ([`Simulator::CANCEL_CHECK_INTERVAL`]); once it fires — explicitly
    /// or by deadline — in-flight and subsequent evaluations return
    /// [`MicroGradError::Cancelled`].  The default token never cancels.
    #[must_use]
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Registers a [`ProgressObserver`] notified at every batch boundary
    /// (which, for tuning runs, is every epoch boundary — see the observer
    /// docs).  The service layer uses this for per-epoch job-timeline
    /// marks; the default is no observer and no overhead.
    #[must_use]
    pub fn with_progress_observer(mut self, observer: ProgressObserver) -> Self {
        self.progress = Some(observer);
        self
    }

    /// The most threads a batch of `jobs` evaluations uses, the calling
    /// thread included.  A `Some(0)` batch may use fewer: it only gets the
    /// spare cores no other batch holds.
    #[must_use]
    pub fn workers_for(&self, jobs: usize) -> usize {
        let configured = match self.parallelism {
            None => 1,
            Some(0) => SpareCores::process().total + 1,
            Some(n) => n,
        };
        configured.max(1).min(jobs.max(1))
    }

    /// The core configuration this platform simulates.
    #[must_use]
    pub fn core(&self) -> &CoreConfig {
        &self.core
    }

    /// The power configuration this platform estimates with.
    #[must_use]
    pub fn power(&self) -> &PowerConfig {
        &self.power
    }

    /// Number of dynamic instructions per evaluation.
    #[must_use]
    pub fn dynamic_len(&self) -> usize {
        self.dynamic_len
    }

    /// Generates the test case for `input` without running it.
    ///
    /// # Errors
    ///
    /// Returns a [`MicroGradError`] if code generation fails.
    pub fn generate(&self, input: &GeneratorInput) -> Result<TestCase, MicroGradError> {
        Ok(Generator::new().generate(input)?)
    }

    /// Runs a full evaluation and returns the raw simulator statistics
    /// alongside the metric vector.
    ///
    /// The expansion streams straight into the simulator: no
    /// `Vec<DynamicInstr>` is ever allocated, so peak trace-layer memory is
    /// bounded by the core's ROB/RS/LSQ windows regardless of
    /// [`dynamic_len`](Self::dynamic_len) — which is what keeps the
    /// worker-pool footprint flat when batches fan out.
    ///
    /// # Errors
    ///
    /// Returns a [`MicroGradError`] if code generation fails.
    pub fn evaluate_detailed(
        &self,
        input: &GeneratorInput,
    ) -> Result<(Metrics, SimStats), MicroGradError> {
        self.evaluate_detailed_with(&mut self.simulator(), input)
    }

    /// Number of evaluations currently memoized.
    #[must_use]
    pub fn cached_evaluations(&self) -> usize {
        self.table().len()
    }

    /// Current memoization-cache counters: hits, misses, inserts, resident
    /// entries, plus the memo table's slot capacity and how many resident
    /// entries collisions have displaced.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            inserts: self.cache_inserts.load(Ordering::Relaxed),
            entries: self.cached_evaluations() as u64,
            replacements: self.cache_replacements.load(Ordering::Relaxed),
            capacity: self.table().capacity() as u64,
        }
    }

    /// Exports every memoized evaluation as `(input, metrics)` pairs.
    ///
    /// Together with [`import_cache`](Self::import_cache) this is the
    /// warm-start interface: a long-lived service can dump the cache of a
    /// finished run and preload the next platform (or a restarted daemon)
    /// with it.  Export order is deterministic: entries are sorted by
    /// fingerprint.
    #[must_use]
    pub fn export_cache(&self) -> Vec<(GeneratorInput, Metrics)> {
        let mut entries: Vec<_> = self.table().iter_since(0).collect();
        entries.sort_by_key(|(fp, _, _)| *fp);
        // Racing same-fingerprint inserts can momentarily leave duplicate
        // entries in distinct probe slots; they memoize the same evaluation,
        // so keep one.
        entries.dedup_by_key(|(fp, _, _)| *fp);
        entries
            .into_iter()
            .map(|(_, input, metrics)| (input.unpack(), metrics.clone()))
            .collect()
    }

    /// Preloads memoized evaluations (the warm-start counterpart of
    /// [`export_cache`](Self::export_cache)) and returns how many entries
    /// were newly admitted.
    ///
    /// Fingerprints are recomputed from the imported inputs — a dump from
    /// an older build (or a tampered file) can never poison a lookup with a
    /// mismatched key.  Entries whose fingerprint is already resident are
    /// skipped, so re-importing is idempotent.  Imported entries count as
    /// inserts but not as hits or misses.
    ///
    /// **Correctness caveat:** metrics are only valid for the platform
    /// configuration that produced them; only import dumps from a platform
    /// with the same core, `dynamic_len` and seed.
    pub fn import_cache<I>(&self, entries: I) -> usize
    where
        I: IntoIterator<Item = (GeneratorInput, Metrics)>,
    {
        let mut admitted = 0;
        for (input, metrics) in entries {
            let fingerprint = input_fingerprint(&input);
            if self
                .table()
                .insert_if_absent(fingerprint, PackedInput::new(&input), metrics)
            {
                admitted += 1;
            }
        }
        self.cache_inserts
            .fetch_add(admitted as u64, Ordering::Relaxed);
        admitted
    }

    /// The memo table, allocating the platform's own on first use.
    fn table(&self) -> &MemoTable<PackedInput, Metrics> {
        self.cache
            .get_or_init(|| Arc::new(MemoTable::new(self.cache_capacity)))
    }

    /// A fresh simulator for this platform's core (batch workers hold one
    /// each and reuse it across the whole batch).
    fn simulator(&self) -> Simulator {
        Simulator::new(self.core.clone())
    }

    /// Full evaluation through a caller-owned (reused) simulator.
    fn evaluate_detailed_with(
        &self,
        sim: &mut Simulator,
        input: &GeneratorInput,
    ) -> Result<(Metrics, SimStats), MicroGradError> {
        let test_case = self.generate(input)?;
        let keystream = self
            .keystream
            .get_or_init(|| Arc::new(Keystream::new(self.seed, self.dynamic_len)));
        let mut source = StreamingExpander::from_keystream(test_case, self.dynamic_len, keystream);
        let stats = sim.run_source_cancellable(&mut source, &self.cancel)?;
        let power = PowerModel::new(self.power.clone()).estimate(&stats);
        Ok((Metrics::from_run(&stats, Some(&power)), stats))
    }

    /// A memoized evaluation.  `sim` is the caller's reusable simulator,
    /// built on the first miss: a hit needs none.
    fn evaluate_fingerprinted_with(
        &self,
        sim: &mut Option<Simulator>,
        fingerprint: u64,
        input: &GeneratorInput,
    ) -> Result<Metrics, MicroGradError> {
        // A fired token aborts even cache-hit evaluations: a fully warmed
        // cache must not keep a cancelled job running through thousands of
        // free lookups.
        self.check_cancelled()?;
        // `MemoTable::get` verifies the stored input bytewise, so a 64-bit
        // hash collision degrades to a recomputation instead of wrong
        // metrics.
        if let Some(hit) = self.table().get(fingerprint, input) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let sim = sim.get_or_insert_with(|| self.simulator());
        let (metrics, _) = self.evaluate_detailed_with(sim, input)?;
        if self
            .table()
            .insert(fingerprint, PackedInput::new(input), metrics.clone())
        {
            self.cache_replacements.fetch_add(1, Ordering::Relaxed);
        }
        self.cache_inserts.fetch_add(1, Ordering::Relaxed);
        Ok(metrics)
    }
}

/// A count of cores that batches borrow helper threads from.
///
/// `Some(0)` platforms share one per process ([`SpareCores::process`]): the
/// host's cores minus one, since every batch's calling thread evaluates
/// too.  Claims never block and never take more than is free.
#[derive(Debug)]
struct SpareCores {
    /// Cores the count starts with.
    total: usize,
    /// Cores no batch holds.
    free: AtomicUsize,
}

impl SpareCores {
    fn new(total: usize) -> Self {
        SpareCores {
            total,
            free: AtomicUsize::new(total),
        }
    }

    /// The process-wide count, sized on the first `Some(0)` batch.
    fn process() -> &'static SpareCores {
        static PROCESS: OnceLock<SpareCores> = OnceLock::new();
        PROCESS.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            SpareCores::new(cores - 1)
        })
    }

    /// Claims up to `want` cores, as many as are free.  The count guards
    /// no data, so `Relaxed` suffices: its read-modify-writes alone keep
    /// claims within `free`.
    fn claim(&self, want: usize) -> Claim<'_> {
        let before = self
            .free
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
                (free > 0 && want > 0).then(|| free - want.min(free))
            })
            .unwrap_or(0);
        Claim {
            from: self,
            cores: want.min(before),
        }
    }
}

/// Cores claimed from a [`SpareCores`], returned on drop (so also when the
/// batch that holds them unwinds).
struct Claim<'a> {
    from: &'a SpareCores,
    cores: usize,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.cores > 0 {
            self.from.free.fetch_add(self.cores, Ordering::Relaxed);
        }
    }
}

/// Runs `work` on the calling thread and on up to `threads - 1` scoped
/// helpers, and returns once all of them have.  With `spare`, the helpers
/// are claimed from that count (possibly none) and given back when the
/// batch ends.  A panic in any thread propagates after every thread has
/// stopped, and the claim is still returned.
fn fan_out(threads: usize, spare: Option<&SpareCores>, work: impl Fn() + Sync) {
    let wanted = threads.saturating_sub(1);
    let claim = spare.map(|spare| spare.claim(wanted));
    let helpers = claim.as_ref().map_or(wanted, |claim| claim.cores);
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(&work);
        }
        work();
    });
}

impl ExecutionPlatform for SimPlatform {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn check_cancelled(&self) -> Result<(), MicroGradError> {
        if self.cancel.is_cancelled() {
            Err(MicroGradError::Cancelled)
        } else {
            Ok(())
        }
    }

    fn evaluate(&self, input: &GeneratorInput) -> Result<Metrics, MicroGradError> {
        self.evaluate_fingerprinted_with(&mut None, input_fingerprint(input), input)
    }

    fn evaluate_batch(&self, inputs: &[GeneratorInput]) -> Vec<Result<Metrics, MicroGradError>> {
        if let Some(progress) = &self.progress {
            progress.batch_started(inputs.len());
        }
        let workers = self.workers_for(inputs.len());
        if workers <= 1 || inputs.len() <= 1 {
            // Sequential path: one reused simulator for the whole batch.
            let mut sim = None;
            return inputs
                .iter()
                .map(|input| {
                    self.evaluate_fingerprinted_with(&mut sim, input_fingerprint(input), input)
                })
                .collect();
        }

        // Deduplicate within the batch so concurrent workers do not redo
        // identical evaluations (tuners routinely probe the same
        // configuration from several ladder positions).  Sorting index/
        // fingerprint pairs groups duplicates into runs — no per-batch hash
        // map, no per-fingerprint `Vec`s.  Candidates are grouped by
        // fingerprint but confirmed by input equality, so a hash collision
        // yields two distinct evaluations, never a shared result.
        let fingerprints: Vec<u64> = inputs.iter().map(input_fingerprint).collect();
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        order.sort_unstable_by_key(|&i| (fingerprints[i], i));
        let mut unique: Vec<usize> = Vec::with_capacity(inputs.len());
        let mut assignment: Vec<usize> = vec![0; inputs.len()];
        let mut run_reps: Vec<usize> = Vec::new();
        let mut pos = 0;
        while pos < order.len() {
            let fp = fingerprints[order[pos]];
            let mut end = pos + 1;
            while end < order.len() && fingerprints[order[end]] == fp {
                end += 1;
            }
            run_reps.clear();
            for &i in &order[pos..end] {
                if let Some(&u) = run_reps.iter().find(|&&u| inputs[unique[u]] == inputs[i]) {
                    assignment[i] = u;
                } else {
                    unique.push(i);
                    run_reps.push(unique.len() - 1);
                    assignment[i] = unique.len() - 1;
                }
            }
            pos = end;
        }

        let slots: Vec<Mutex<Option<Result<Metrics, MicroGradError>>>> =
            unique.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let spare = (self.parallelism == Some(0)).then(SpareCores::process);
        fan_out(workers.min(unique.len()), spare, || {
            // One simulator per thread, reused across every evaluation the
            // thread claims.
            let mut sim = None;
            loop {
                let u = next.fetch_add(1, Ordering::Relaxed);
                if u >= unique.len() {
                    break;
                }
                let input = &inputs[unique[u]];
                let result =
                    self.evaluate_fingerprinted_with(&mut sim, fingerprints[unique[u]], input);
                *slots[u].lock() = Some(result);
            }
        });

        assignment
            .iter()
            .map(|&slot| {
                slots[slot]
                    .lock()
                    .clone()
                    .expect("the batch threads filled every slot")
            })
            .collect()
    }

    fn measure_source(&self, source: &mut dyn TraceSource) -> Metrics {
        let stats = self.simulator().run_source(source);
        let power = PowerModel::new(self.power.clone()).estimate(&stats);
        Metrics::from_run(&stats, Some(&power))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricKind;
    use micrograd_isa::Opcode;
    use micrograd_workloads::{ApplicationTraceGenerator, Benchmark};

    fn platform() -> SimPlatform {
        SimPlatform::new(CoreConfig::small())
            .with_dynamic_len(20_000)
            .with_seed(3)
    }

    #[test]
    fn evaluate_produces_all_metrics() {
        let p = platform();
        let input = GeneratorInput {
            loop_size: 200,
            ..GeneratorInput::default()
        };
        let metrics = p.evaluate(&input).unwrap();
        for kind in MetricKind::ALL {
            assert!(metrics.get(kind).is_some(), "{kind} missing");
        }
        assert!(metrics.value_or_zero(MetricKind::Ipc) > 0.0);
        assert!(metrics.value_or_zero(MetricKind::DynamicPower) > 0.0);
    }

    #[test]
    fn evaluation_is_deterministic_and_cached() {
        let p = platform();
        let input = GeneratorInput {
            loop_size: 100,
            ..GeneratorInput::default()
        };
        let a = p.evaluate(&input).unwrap();
        assert_eq!(p.cached_evaluations(), 1);
        let b = p.evaluate(&input).unwrap();
        assert_eq!(a, b);
        assert_eq!(p.cached_evaluations(), 1);
    }

    #[test]
    fn cache_stats_track_hits_misses_and_inserts() {
        let p = platform();
        let fresh = p.cache_stats();
        assert_eq!(fresh.lookups(), 0);
        assert_eq!(fresh.inserts, 0);
        assert_eq!(fresh.entries, 0);
        assert_eq!(fresh.replacements, 0);
        assert_eq!(fresh.capacity, SimPlatform::DEFAULT_CACHE_CAPACITY as u64);
        let input = GeneratorInput {
            loop_size: 100,
            ..GeneratorInput::default()
        };
        p.evaluate(&input).unwrap();
        let after_miss = p.cache_stats();
        assert_eq!(after_miss.hits, 0);
        assert_eq!(after_miss.misses, 1);
        assert_eq!(after_miss.inserts, 1);
        assert_eq!(after_miss.entries, 1);
        assert!((after_miss.hit_rate() - 0.0).abs() < 1e-12);

        p.evaluate(&input).unwrap();
        let after_hit = p.cache_stats();
        assert_eq!(after_hit.hits, 1);
        assert_eq!(after_hit.misses, 1);
        assert_eq!(after_hit.lookups(), 2);
        assert!((after_hit.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_export_import_round_trips_and_is_idempotent() {
        let warm = platform();
        let inputs: Vec<GeneratorInput> = (0..3)
            .map(|i| GeneratorInput {
                loop_size: 80 + i * 40,
                ..GeneratorInput::default()
            })
            .collect();
        for input in &inputs {
            warm.evaluate(input).unwrap();
        }
        let dump = warm.export_cache();
        assert_eq!(dump.len(), 3);

        let cold = platform();
        assert_eq!(cold.import_cache(dump.clone()), 3);
        assert_eq!(cold.import_cache(dump.clone()), 0, "re-import is a no-op");
        let stats = cold.cache_stats();
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.misses, 0, "imports are not misses");

        // The imported platform answers from the cache with the exact
        // metrics the warm platform computed.
        for input in &inputs {
            let warm_metrics = warm.evaluate(input).unwrap();
            let cold_metrics = cold.evaluate(input).unwrap();
            assert_eq!(warm_metrics, cold_metrics);
        }
        assert_eq!(cold.cache_stats().hits, 3);

        // Export order is deterministic.
        assert_eq!(warm.export_cache(), cold.export_cache());
    }

    #[test]
    fn platforms_sharing_a_table_share_results_not_counters() {
        let table = Arc::new(MemoTable::new(SimPlatform::DEFAULT_CACHE_CAPACITY));
        let first = platform().with_cache(Arc::clone(&table));
        let second = platform().with_cache(Arc::clone(&table));
        let input = GeneratorInput {
            loop_size: 100,
            ..GeneratorInput::default()
        };
        let computed = first.evaluate(&input).unwrap();
        assert_eq!(
            second.evaluate(&input),
            Ok(computed),
            "a hit on the shared table"
        );
        let (a, b) = (first.cache_stats(), second.cache_stats());
        assert_eq!((a.hits, a.misses, a.inserts), (0, 1, 1));
        assert_eq!((b.hits, b.misses, b.inserts), (1, 0, 0));
        assert_eq!((a.entries, b.entries), (1, 1), "both see the one table");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn tiny_cache_forces_replacement_and_recomputes_correctly() {
        // Capacity 1 pins every input to the same bucket: the second
        // evaluation displaces the first (replace-on-collision), and
        // re-evaluating the first is a verified miss that recomputes the
        // exact same metrics — never wrong data, never an error.
        let p = platform().with_cache_capacity(1);
        let a = GeneratorInput {
            loop_size: 80,
            ..GeneratorInput::default()
        };
        let b = GeneratorInput {
            loop_size: 120,
            ..GeneratorInput::default()
        };
        let a_first = p.evaluate(&a).unwrap();
        p.evaluate(&b).unwrap();
        let stats = p.cache_stats();
        assert_eq!(stats.capacity, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.replacements, 1, "b displaced a");
        assert_eq!(stats.hits, 0);

        let a_again = p.evaluate(&a).unwrap();
        assert_eq!(a_first, a_again, "recomputation is bit-identical");
        let stats = p.cache_stats();
        assert_eq!(stats.misses, 3, "displaced entry recomputed, not served");
        assert_eq!(stats.replacements, 2, "a displaced b back");

        // Once resident again, it hits.
        p.evaluate(&a).unwrap();
        assert_eq!(p.cache_stats().hits, 1);
    }

    #[test]
    fn cancelled_token_aborts_evaluations_even_on_cache_hits() {
        let token = CancelToken::never();
        let p = platform().with_cancel_token(token.clone());
        let input = GeneratorInput {
            loop_size: 100,
            ..GeneratorInput::default()
        };
        p.evaluate(&input).unwrap();
        assert_eq!(p.cache_stats().entries, 1);

        token.cancel();
        assert!(p.check_cancelled().is_err());
        // A warmed cache must not keep a cancelled run alive.
        assert_eq!(p.evaluate(&input), Err(MicroGradError::Cancelled));
        let batch = p.evaluate_batch(&[input.clone(), input]);
        assert!(batch
            .iter()
            .all(|r| matches!(r, Err(MicroGradError::Cancelled))));
    }

    #[test]
    fn default_token_never_cancels() {
        let p = platform();
        assert!(p.check_cancelled().is_ok());
    }

    #[test]
    fn fingerprint_distinguishes_inputs_and_is_stable() {
        let base = GeneratorInput::default();
        let mut other = base.clone();
        other.mem_stride = base.mem_stride + 8;
        assert_eq!(input_fingerprint(&base), input_fingerprint(&base.clone()));
        assert_ne!(input_fingerprint(&base), input_fingerprint(&other));

        let mut float_tweak = base.clone();
        float_tweak.branch_randomness += 1e-9;
        assert_ne!(input_fingerprint(&base), input_fingerprint(&float_tweak));
    }

    #[test]
    fn batch_matches_sequential_evaluation() {
        let sequential = platform();
        let parallel = platform().with_parallelism(Some(4));
        let inputs: Vec<GeneratorInput> = (1..6)
            .map(|i| GeneratorInput {
                loop_size: 60 + i * 30,
                reg_dependency_distance: i as u32,
                ..GeneratorInput::default()
            })
            .collect();
        let seq: Vec<_> = inputs.iter().map(|i| sequential.evaluate(i)).collect();
        let par = parallel.evaluate_batch(&inputs);
        assert_eq!(seq, par);
    }

    #[test]
    fn batch_deduplicates_identical_inputs() {
        let p = platform().with_parallelism(Some(4));
        let input = GeneratorInput {
            loop_size: 80,
            ..GeneratorInput::default()
        };
        let batch = vec![input.clone(), input.clone(), input];
        let results = p.evaluate_batch(&batch);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(p.cached_evaluations(), 1);
    }

    #[test]
    fn progress_observer_sees_every_batch_boundary() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&batches);
        let p = platform()
            .with_parallelism(Some(2))
            .with_progress_observer(ProgressObserver::new(move |n| seen.lock().push(n)));
        let inputs: Vec<GeneratorInput> = (1..4)
            .map(|i| GeneratorInput {
                loop_size: 60 + i * 30,
                ..GeneratorInput::default()
            })
            .collect();
        let _ = p.evaluate_batch(&inputs);
        let _ = p.evaluate_batch(&inputs[..1]);
        assert_eq!(*batches.lock(), vec![3, 1]);
        // Single evaluations bypass the batch seam (tuners never do).
        let _ = p.evaluate(&inputs[0]);
        assert_eq!(batches.lock().len(), 2);
    }

    #[test]
    fn batch_reports_errors_in_position() {
        let p = platform().with_parallelism(Some(2));
        let good = GeneratorInput {
            loop_size: 80,
            ..GeneratorInput::default()
        };
        let bad = GeneratorInput {
            loop_size: 1,
            ..GeneratorInput::default()
        };
        let results = p.evaluate_batch(&[good.clone(), bad, good]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(MicroGradError::Codegen(_))));
        assert!(results[2].is_ok());
    }

    #[test]
    fn worker_sizing_honors_configuration() {
        let p = platform();
        assert_eq!(p.workers_for(100), 1);
        assert_eq!(p.parallelism(), None);
        let p = platform().with_parallelism(Some(4));
        assert_eq!(p.workers_for(100), 4);
        assert_eq!(p.workers_for(2), 2);
        let p = platform().with_parallelism(Some(0));
        assert_eq!(p.workers_for(100), SpareCores::process().total + 1);
        assert_eq!(p.workers_for(1), 1);
    }

    #[test]
    fn spare_cores_are_never_over_claimed() {
        let spare = SpareCores::new(2);
        let first = spare.claim(5);
        assert_eq!(first.cores, 2, "a claim takes what is free");
        assert_eq!(spare.claim(1).cores, 0, "and never more");
        drop(first);
        assert_eq!(spare.free.load(Ordering::Relaxed), 2);

        // Four callers fanning out at once run at most their own four
        // threads plus the two spare cores.
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        fan_out(8, Some(&spare), || {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            running.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 4 + 2);
        assert_eq!(
            spare.free.load(Ordering::Relaxed),
            2,
            "every claim came back"
        );
    }

    #[test]
    fn a_panicking_batch_returns_its_claim() {
        let spare = SpareCores::new(3);
        let held = AtomicUsize::new(usize::MAX);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(4, Some(&spare), || {
                held.store(spare.free.load(Ordering::SeqCst), Ordering::SeqCst);
                panic!("an evaluation panicked");
            });
        }));
        assert!(outcome.is_err(), "the panic reaches the caller");
        assert_eq!(held.load(Ordering::SeqCst), 0, "the batch held all three");
        assert_eq!(spare.free.load(Ordering::Relaxed), 3, "and gave them back");
    }

    #[test]
    fn different_cores_give_different_ipc() {
        let input = GeneratorInput {
            loop_size: 200,
            reg_dependency_distance: 8,
            ..GeneratorInput::default()
        };
        let small = SimPlatform::new(CoreConfig::small())
            .with_dynamic_len(20_000)
            .evaluate(&input)
            .unwrap();
        let large = SimPlatform::new(CoreConfig::large())
            .with_dynamic_len(20_000)
            .evaluate(&input)
            .unwrap();
        assert!(
            large.value_or_zero(MetricKind::Ipc) > small.value_or_zero(MetricKind::Ipc),
            "large core should execute the same ILP-rich loop faster"
        );
    }

    #[test]
    fn measure_trace_characterizes_applications() {
        let p = platform();
        let trace = ApplicationTraceGenerator::new(20_000, 5).generate(&Benchmark::Mcf.profile());
        let mcf = p.measure_trace(&trace);
        let trace = ApplicationTraceGenerator::new(20_000, 5).generate(&Benchmark::Hmmer.profile());
        let hmmer = p.measure_trace(&trace);
        // mcf is memory bound, hmmer is compute friendly
        assert!(
            mcf.value_or_zero(MetricKind::Ipc) < hmmer.value_or_zero(MetricKind::Ipc),
            "mcf {} should be slower than hmmer {}",
            mcf.value_or_zero(MetricKind::Ipc),
            hmmer.value_or_zero(MetricKind::Ipc)
        );
        assert!(
            mcf.value_or_zero(MetricKind::L1dHitRate) < hmmer.value_or_zero(MetricKind::L1dHitRate)
        );
    }

    #[test]
    fn measure_source_matches_measure_trace() {
        let p = platform();
        let generator = ApplicationTraceGenerator::new(20_000, 5);
        let profile = Benchmark::Gcc.profile();
        let materialized = p.measure_trace(&generator.generate(&profile));
        let streamed = p.measure_source(&mut generator.stream(&profile));
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn invalid_input_surfaces_codegen_error() {
        let p = platform();
        let input = GeneratorInput {
            loop_size: 1,
            ..GeneratorInput::default()
        };
        assert!(matches!(
            p.evaluate(&input),
            Err(MicroGradError::Codegen(_))
        ));
    }

    #[test]
    fn evaluations_read_the_shared_keystream_and_match_private_expansion() {
        let mut input = GeneratorInput {
            loop_size: 90,
            mem_temporal_period: 16,
            branch_randomness: 0.5,
            ..GeneratorInput::default()
        };
        input.set_weight(Opcode::Ld, 6.0);
        input.set_weight(Opcode::Sd, 6.0);
        // 120,000 instructions of this input draw about 336,000 words: past
        // the 2^18-word prefix, the rest come from the live generator.
        for len in [3_000, 120_000] {
            let p = platform().with_dynamic_len(len);
            assert!(p.keystream.get().is_none(), "built before the first miss");
            let (_, shared) = p.evaluate_detailed(&input).unwrap();
            let keystream = p.keystream.get().expect("built on the first miss");
            assert_eq!(keystream.len(), (4 * len).min(1 << 18));
            let tc = p.generate(&input).unwrap();
            let private = p
                .simulator()
                .run_source(&mut StreamingExpander::new(&tc, len, 3));
            assert_eq!(shared, private, "len {len}");
        }
    }

    #[test]
    fn a_platform_allocates_its_own_table_only_when_it_has_none() {
        let own = platform().with_cache_capacity(100);
        assert!(own.cache.get().is_none());
        assert_eq!(own.cache_stats().capacity, 128);
        let table = Arc::new(MemoTable::new(8));
        let shared = platform().with_cache(Arc::clone(&table));
        assert!(Arc::ptr_eq(shared.cache.get().unwrap(), &table));
        assert_eq!(shared.cache_stats().capacity, 8);
    }

    #[test]
    fn accessors_report_configuration() {
        let p = platform();
        assert_eq!(p.name(), "small");
        assert_eq!(p.core().name, "small");
        assert_eq!(p.power().name, "small");
        assert_eq!(p.dynamic_len(), 20_000);
    }
}
