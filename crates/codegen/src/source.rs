//! Streaming trace sources: dynamic instructions on demand.
//!
//! The materialized [`Trace`] is convenient for analysis but costs
//! O(`dynamic_len`) memory and a second traversal on the hottest path of the
//! framework (every tuning evaluation expands a trace, then simulates it).
//! A [`TraceSource`] instead yields [`DynamicInstr`]s one at a time, so the
//! simulator can fuse expansion and simulation into a single pass whose
//! memory footprint is bounded by the core's window sizes — see
//! `docs/streaming.md` for the memory model.
//!
//! Four implementations ship here:
//!
//! * [`StreamingExpander`] — the cursor form of [`TraceExpander::expand`];
//!   same ChaCha8 seed discipline, bit-identical stream.  Expansions that
//!   share a seed can read one precomputed [`Keystream`] instead of each
//!   recomputing the same ChaCha8 words.
//! * [`TraceCursor`] — replays an already-materialized [`Trace`]
//!   (obtained via [`Trace::source`]).
//! * [`PhaseSchedule`] — concatenates per-phase sources with per-phase
//!   lengths, which is how phase-structured workloads (one behaviour per
//!   SimPoint-like phase) are composed without ever materializing the
//!   combined stream.
//! * [`WindowedSource`] — one dynamic-index window of another source
//!   ([`TraceSource::window`]: skip/take), which is how per-SimPoint
//!   reference measurement and interval replay avoid materialization
//!   (see `docs/simpoint.md`).

use crate::trace::{DynamicInstr, Trace};
use crate::{MemoryStream, TestCase, TraceExpander};
use micrograd_isa::Instruction;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::select_unpredictable;
use std::ops::ControlFlow;
use std::sync::Arc;

/// A stream of dynamic instructions plus the static code they refer to.
///
/// This is the contract between trace producers (the knob-driven
/// [`TraceExpander`], application models, phase schedules, materialized
/// traces) and trace consumers (the simulator, characterization code).  A
/// source is an owning cursor: [`next_dynamic`](TraceSource::next_dynamic)
/// advances it and returns `None` once the stream is exhausted.
///
/// `DynamicInstr::static_index` values index into
/// [`statics`](TraceSource::statics), which must remain stable for the
/// lifetime of the source.
pub trait TraceSource {
    /// The static instructions referenced by
    /// [`DynamicInstr::static_index`].
    fn statics(&self) -> &[Instruction];

    /// Produces the next dynamic instruction, or `None` when the stream is
    /// exhausted.
    fn next_dynamic(&mut self) -> Option<DynamicInstr>;

    /// Number of dynamic instructions left, when the source knows it.
    fn remaining(&self) -> Option<usize>;

    /// Feeds the rest of the stream to `visit`, in order, until the stream
    /// ends or `visit` breaks.  An instruction handed to `visit` is
    /// consumed, so after a break the source continues with the next one.
    ///
    /// Yields exactly what repeated [`next_dynamic`](Self::next_dynamic)
    /// calls would, drawing the same random words in the same order.  The
    /// default pulls `next_dynamic`; a source with a faster whole-stream
    /// loop overrides it ([`StreamingExpander`] does).  The simulator runs
    /// its per-instruction body as `visit`, so a source that a caller
    /// monomorphizes and that inlines `drive` gets the body inlined into
    /// its own loop.
    #[inline]
    fn drive(&mut self, visit: &mut dyn FnMut(DynamicInstr) -> ControlFlow<()>) -> ControlFlow<()> {
        while let Some(d) = self.next_dynamic() {
            visit(d)?;
        }
        ControlFlow::Continue(())
    }

    /// Restricts this source to the dynamic-index window
    /// `[start, start + len)`: the first `start` instructions are consumed
    /// and discarded (advancing the underlying stream state exactly as a
    /// full replay would), then at most `len` are yielded.
    ///
    /// This is how SimPoint interval replay and per-simpoint reference
    /// measurement work without materializing the trace: a fresh source is
    /// windowed onto the representative interval and fed straight to the
    /// simulator, in O(window) memory.
    fn window(self, start: usize, len: usize) -> WindowedSource<Self>
    where
        Self: Sized,
    {
        WindowedSource::new(self, start, len)
    }
}

/// Drains a source into a materialized [`Trace`].
///
/// This is the compatibility bridge for analysis code that wants random
/// access; the hot evaluation path feeds sources to the simulator directly.
#[must_use]
pub fn collect_trace<S: TraceSource + ?Sized>(source: &mut S) -> Trace {
    let dynamics = drain_dynamics(source);
    Trace::new(source.statics().to_vec(), dynamics)
}

/// Drives `source` to its end, collecting the dynamic instructions.
pub(crate) fn drain_dynamics<S: TraceSource + ?Sized>(source: &mut S) -> Vec<DynamicInstr> {
    let mut dynamics = Vec::with_capacity(source.remaining().unwrap_or(0));
    let _ = source.drive(&mut |d| {
        dynamics.push(d);
        ControlFlow::Continue(())
    });
    dynamics
}

/// A [`TraceSource`] replaying a materialized [`Trace`] in program order.
///
/// Created by [`Trace::source`]; lets every consumer of the streaming
/// interface also accept recorded traces (SimPoint interval slices, test
/// fixtures) without a copy.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceCursor<'a> {
    /// Creates a cursor at the start of `trace`.
    #[must_use]
    pub fn new(trace: &'a Trace) -> Self {
        TraceCursor { trace, pos: 0 }
    }
}

impl TraceSource for TraceCursor<'_> {
    fn statics(&self) -> &[Instruction] {
        self.trace.statics()
    }

    fn next_dynamic(&mut self) -> Option<DynamicInstr> {
        let d = self.trace.dynamics().get(self.pos).copied()?;
        self.pos += 1;
        Some(d)
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.trace.len() - self.pos)
    }
}

/// A [`TraceSource`] adapter exposing one dynamic-index window of another
/// source: skip `start` instructions, then yield at most `len`.
///
/// Created by [`TraceSource::window`].  The skipped prefix is *consumed*
/// from the inner source (not recomputed), so the yielded instructions are
/// bit-identical to positions `start..start + len` of the inner stream —
/// which is what makes windowed replay equivalent to slicing a
/// materialized trace's `dynamics()`, at O(window) memory instead of
/// O(trace).  Skipping is deferred to the first
/// [`next_dynamic`](TraceSource::next_dynamic)/
/// [`remaining`](TraceSource::remaining) call, so constructing windows is
/// free.
#[derive(Debug, Clone)]
pub struct WindowedSource<S> {
    inner: S,
    start: usize,
    len: usize,
    skipped: bool,
    emitted: usize,
}

impl<S: TraceSource> WindowedSource<S> {
    /// Creates a window over `inner` spanning dynamic indices
    /// `[start, start + len)`.
    #[must_use]
    pub fn new(inner: S, start: usize, len: usize) -> Self {
        WindowedSource {
            inner,
            start,
            len,
            skipped: false,
            emitted: 0,
        }
    }

    fn skip_prefix(&mut self) {
        if self.skipped {
            return;
        }
        for _ in 0..self.start {
            if self.inner.next_dynamic().is_none() {
                break;
            }
        }
        self.skipped = true;
    }
}

impl<S: TraceSource> TraceSource for WindowedSource<S> {
    fn statics(&self) -> &[Instruction] {
        self.inner.statics()
    }

    fn next_dynamic(&mut self) -> Option<DynamicInstr> {
        self.skip_prefix();
        if self.emitted >= self.len {
            return None;
        }
        let d = self.inner.next_dynamic()?;
        self.emitted += 1;
        Some(d)
    }

    fn remaining(&self) -> Option<usize> {
        let budget = self.len - self.emitted;
        let inner_left = if self.skipped {
            self.inner.remaining()
        } else {
            self.inner.remaining().map(|r| r.saturating_sub(self.start))
        };
        inner_left.map(|r| r.min(budget))
    }
}

/// The streaming form of [`TraceExpander::expand`].
///
/// Holds the expansion state (ChaCha8 RNG, per-stream positions and re-use
/// histories, loop cursor) and produces the **bit-identical** dynamic
/// stream the materializing expander would, one instruction at a time.
/// Memory is O(loop size + temporal-reuse windows) regardless of
/// `dynamic_len`, which is what makes 100 M-instruction evaluations
/// feasible.
///
/// Everything the per-instruction path needs is decoded once, at
/// construction: a step table with one `Copy` record per static
/// instruction (fetch address, branch kind, memory-stream slot) and one
/// slot per memory stream (re-use probability, a window-sized ring of
/// recent addresses, and the stream position's running
/// `(pos * stride) % footprint`).  `docs/streaming.md` lists the
/// invariants that keep this stream bit-identical to the expansion rules
/// of [`TraceExpander`], which the test-only reference expander in
/// `source/reference.rs` transcribes directly.
///
/// The random words come from the ChaCha8 keystream of the seed, drawn
/// strictly in order.  [`new`](Self::new) and
/// [`from_test_case`](Self::from_test_case) compute every word themselves;
/// [`from_keystream`](Self::from_keystream) reads a shared [`Keystream`]
/// prefix by index and computes only the words past its end.  Both yield
/// the same stream.
///
/// Created by [`TraceExpander::stream`].
#[derive(Debug, Clone)]
pub struct StreamingExpander {
    statics: Vec<Instruction>,
    /// One decoded record per static instruction.
    steps: Vec<Step>,
    draws: Draws,
    dynamic_len: usize,
    emitted: usize,
    /// Index of the next static instruction to execute.
    cursor: usize,
}

/// The state the random draws of dynamic instances update.
#[derive(Debug, Clone)]
struct Draws {
    /// Per-stream state, indexed by [`MemStep::slot`].
    slots: Vec<StreamSlot>,
    /// The re-use rings of every slot, back to back.
    recent: Vec<u64>,
    rng: KeystreamCursor,
}

/// The ChaCha8 generator an expansion with `seed` draws from.
fn expansion_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_7ACE)
}

/// The most keystream words one dynamic instruction draws: a memory op
/// takes two for the re-use test (`gen::<f64>`) and two for the re-use pick
/// (`gen_range`), a flipped branch two for the flip test and one for the
/// coin (`gen::<bool>`), every other instruction none.
const WORDS_PER_INSTR: usize = 4;

/// The longest [`Keystream`] prefix: 2^18 words, 1 MiB.
const MAX_PREFIX_WORDS: usize = 1 << 18;

/// The first words of an expansion seed's ChaCha8 keystream, computed once
/// and read by index by every [`StreamingExpander`] built over it with
/// [`StreamingExpander::from_keystream`].
///
/// An expansion draws its words strictly in order and at most four per
/// dynamic instruction, so a prefix of `4 × dynamic_len` words covers a
/// whole expansion of `dynamic_len` instructions.  The prefix is capped at
/// 2^18 words (1 MiB): a longer expansion reads the first 1 MiB and
/// continues on a live generator positioned at the prefix's end, so
/// memory stays bounded for any length.  A prefix costs 4 B per word and
/// about a nanosecond per word to build.
pub struct Keystream {
    /// The expansion seed, as [`StreamingExpander::new`] takes it.
    seed: u64,
    words: Box<[u32]>,
}

impl Keystream {
    /// The prefix for expansions of up to `dynamic_len` instructions with
    /// `seed`: `min(4 × dynamic_len, 2^18)` words.
    #[must_use]
    pub fn new(seed: u64, dynamic_len: usize) -> Self {
        let len = dynamic_len
            .saturating_mul(WORDS_PER_INSTR)
            .min(MAX_PREFIX_WORDS);
        Self::with_words(seed, len)
    }

    /// The first `len` words of `seed`'s expansion keystream.
    fn with_words(seed: u64, len: usize) -> Self {
        let mut rng = expansion_rng(seed);
        Keystream {
            seed,
            words: (0..len).map(|_| rng.next_u32()).collect(),
        }
    }

    /// Number of precomputed words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no word is precomputed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl std::fmt::Debug for Keystream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keystream")
            .field("seed", &self.seed)
            .field("len", &self.words.len())
            .finish()
    }
}

/// An expansion's word source: the prefix's words by index while they
/// last, then a live generator positioned at the prefix's end.  A private
/// expansion has an empty prefix.
#[derive(Debug, Clone)]
struct KeystreamCursor {
    prefix: Arc<Keystream>,
    /// Words drawn so far, which is also the next prefix index.
    pos: usize,
    live: ChaCha8Rng,
}

impl KeystreamCursor {
    /// A cursor over an empty prefix: every word comes from the live
    /// generator.
    fn private(seed: u64) -> Self {
        Self::new(Arc::new(Keystream::with_words(seed, 0)))
    }

    fn new(prefix: Arc<Keystream>) -> Self {
        let mut live = expansion_rng(prefix.seed);
        live.set_word_pos(prefix.words.len() as u128);
        KeystreamCursor {
            prefix,
            pos: 0,
            live,
        }
    }

    /// [`next_u64`](RngCore::next_u64) of the pair at `pos` when it does
    /// not lie inside the prefix.
    #[inline]
    fn past_prefix_u64(&mut self, pos: usize) -> u64 {
        match self.prefix.words.get(pos) {
            Some(&lo) => pair(lo, self.live.next_u32()),
            None => self.live.next_u64(),
        }
    }

    /// Whether a probability test with [`threshold`] `below` passes, on
    /// the next two words: `gen::<f64>() < p`, in integers.
    #[inline(always)]
    fn chance(&mut self, below: u64) -> bool {
        (self.next_u64() >> 11) < below
    }

    /// `gen_range(0..span)` for a nonzero `span`, on the next two words:
    /// the word masked when `span` is a power of two, else reduced modulo
    /// `span`, exactly as the generic range sampler computes it.
    #[inline(always)]
    fn below(&mut self, span: usize) -> usize {
        let word = self.next_u64();
        let span = span as u64;
        (if span.is_power_of_two() {
            word & (span - 1)
        } else {
            word % span
        }) as usize
    }

    /// The next `N` words when they all lie inside the prefix, without
    /// drawing them: a draw that reads them advances `pos` by the words it
    /// consumes, and the rest stay the next draw's.
    #[inline(always)]
    fn peek<const N: usize>(&self) -> Option<[u32; N]> {
        self.prefix.words.get(self.pos..)?.first_chunk().copied()
    }
}

/// The 64-bit draw of a low and a high word, as
/// [`next_u64`](RngCore::next_u64) composes them.
#[inline(always)]
fn pair(lo: u32, hi: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

impl RngCore for KeystreamCursor {
    #[inline(always)]
    fn next_u32(&mut self) -> u32 {
        let word = match self.prefix.words.get(self.pos) {
            Some(&word) => word,
            None => self.live.next_u32(),
        };
        self.pos += 1;
        word
    }

    /// Low word first, as `ChaCha8Rng::next_u64` composes them, also when
    /// the pair straddles the prefix's end.  A pair inside the prefix is
    /// two loads, inlined into the expansion loop.
    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        let pos = self.pos;
        self.pos += 2;
        match self.prefix.words.get(pos..pos + 2) {
            Some(&[lo, hi]) => pair(lo, hi),
            _ => self.past_prefix_u64(pos),
        }
    }
}

/// One static instruction, decoded for expansion.
#[derive(Debug, Clone, Copy)]
struct Step {
    pc: u64,
    branch: BranchStep,
    mem: Option<MemStep>,
}

/// How a static instruction's branch outcome is drawn.
#[derive(Debug, Clone, Copy)]
enum BranchStep {
    /// Not a conditional branch: no outcome.
    None,
    /// A body branch with no randomization: always taken.
    Taken,
    /// A body branch flipped to a fair coin with a probability, held as
    /// its [`threshold`].
    Flip(u64),
    /// The loop back-edge: taken unless this is the final dynamic
    /// instruction.
    BackEdge,
}

/// The integer form of a probability test: `gen::<f64>() < p` holds
/// exactly when the draw's top 53 bits are below `ceil(p · 2^53)`.
///
/// `gen::<f64>()` is `(w >> 11) / 2^53` for the next 64-bit word `w`, and
/// scaling by 2^53 is exact, so `(w >> 11) / 2^53 < p` is
/// `w >> 11 < p · 2^53`, which for an integer left side is
/// `w >> 11 < ceil(p · 2^53)`.  The cast saturates: a NaN or negative `p`
/// gives 0 (never), a `p` above 1 a threshold above every draw (always).
fn threshold(p: f64) -> u64 {
    (p * 9_007_199_254_740_992.0).ceil() as u64
}

/// The per-static part of a memory access.
#[derive(Debug, Clone, Copy)]
struct MemStep {
    /// Index into [`StreamingExpander::slots`].
    slot: u32,
    base: u64,
    /// `offset % footprint`.
    offset: u64,
}

/// The per-stream part of memory accesses: re-use probability and history,
/// and the stream's position.
#[derive(Debug, Clone, Copy)]
struct StreamSlot {
    /// [`threshold`] of the re-use probability; a stream missing from
    /// `streams()` gets 0.
    reuse_below: u64,
    /// Ring capacity: the re-use window (at least 1, at most the dynamic
    /// length), or 0 when the stream never re-uses, which needs no history.
    ring_cap: usize,
    ring_start: usize,
    /// Next ring position to write, in `0..ring_cap`.
    ring_head: usize,
    /// Addresses held, at most `ring_cap`.
    ring_len: usize,
    /// Fresh (not re-used) accesses so far: the `address_at` iteration.
    pos: u64,
    /// `(pos * stride) % footprint`, kept incrementally.
    phase: u64,
    /// `stride % footprint`.
    stride: u64,
    /// `footprint.max(1)`.
    footprint: u64,
    /// While `pos < exact_until`, `pos * stride + offset` cannot overflow
    /// for any static of the stream, so `phase` plus the static's offset
    /// equals `address_at`.  0 when the stream's statics disagree on stride
    /// or footprint: every fresh address then comes from `address_at`.
    exact_until: u64,
}

/// `(a + b) % m` for `a, b < m`, without overflow.
#[inline]
fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    if a >= m - b {
        a - (m - b)
    } else {
        a + b
    }
}

impl StreamingExpander {
    /// Creates a streaming expander over `test_case`, producing
    /// `dynamic_len` instructions with `seed` — the same seed discipline as
    /// [`TraceExpander::new`], so the stream matches the materialized
    /// expansion bit for bit.  Copies the static table; use
    /// [`from_test_case`](Self::from_test_case) when the test case is not
    /// needed afterwards.  Computes every ChaCha8 word it draws.
    #[must_use]
    pub fn new(test_case: &TestCase, dynamic_len: usize, seed: u64) -> Self {
        let statics = test_case.block().instructions().to_vec();
        let words = KeystreamCursor::private(seed);
        Self::from_parts(statics, test_case.streams(), dynamic_len, words)
    }

    /// [`new`](Self::new) over a test case that is only generated to be
    /// expanded: the static table moves in instead of being copied.
    #[must_use]
    pub fn from_test_case(mut test_case: TestCase, dynamic_len: usize, seed: u64) -> Self {
        let statics = std::mem::take(test_case.block_mut().instructions_mut());
        let words = KeystreamCursor::private(seed);
        Self::from_parts(statics, test_case.streams(), dynamic_len, words)
    }

    /// [`from_test_case`](Self::from_test_case) with the seed of
    /// `keystream`, reading its precomputed words instead of computing
    /// them: the stream is the same, and only words past the prefix's end
    /// are computed.  Expansions of one seed can share one keystream
    /// across threads.
    #[must_use]
    pub fn from_keystream(
        mut test_case: TestCase,
        dynamic_len: usize,
        keystream: &Arc<Keystream>,
    ) -> Self {
        let statics = std::mem::take(test_case.block_mut().instructions_mut());
        let words = KeystreamCursor::new(Arc::clone(keystream));
        Self::from_parts(statics, test_case.streams(), dynamic_len, words)
    }

    fn from_parts(
        statics: Vec<Instruction>,
        streams: &[MemoryStream],
        dynamic_len: usize,
        rng: KeystreamCursor,
    ) -> Self {
        // A duplicated stream id keeps its last descriptor, as collecting
        // into a map does.
        let reuse: BTreeMap<u32, (f64, usize)> = streams
            .iter()
            .map(|s| (s.id, (s.reuse_probability(), s.reuse_window as usize)))
            .collect();
        let mut slot_of: BTreeMap<u32, u32> = BTreeMap::new();
        let mut slots: Vec<StreamSlot> = Vec::new();
        // Per slot: the (stride, footprint) all its statics share, if they
        // do, and their largest offset.
        let mut geometry: Vec<(Option<(u64, u64)>, u64)> = Vec::new();
        let last = statics.len().saturating_sub(1);
        let steps = statics
            .iter()
            .enumerate()
            .map(|(i, instr)| {
                let mem = instr.mem().map(|m| {
                    let slot = *slot_of.entry(m.stream).or_insert_with(|| {
                        let (prob, window) = reuse.get(&m.stream).copied().unwrap_or((0.0, 1));
                        let footprint = m.footprint.max(1);
                        slots.push(StreamSlot {
                            reuse_below: threshold(prob),
                            ring_cap: if prob > 0.0 {
                                window.min(dynamic_len).max(1)
                            } else {
                                0
                            },
                            ring_start: 0,
                            ring_head: 0,
                            ring_len: 0,
                            pos: 0,
                            phase: 0,
                            stride: m.stride % footprint,
                            footprint,
                            exact_until: 0,
                        });
                        geometry.push((Some((m.stride, m.footprint)), 0));
                        (slots.len() - 1) as u32
                    });
                    let (shared, max_offset) = &mut geometry[slot as usize];
                    if *shared != Some((m.stride, m.footprint)) {
                        *shared = None;
                    }
                    *max_offset = (*max_offset).max(m.offset);
                    MemStep {
                        slot,
                        base: m.base,
                        offset: m.offset % m.footprint.max(1),
                    }
                });
                let branch = if !instr.opcode().is_conditional_branch() {
                    BranchStep::None
                } else if i == last {
                    BranchStep::BackEdge
                } else if instr.branch_taken_prob() > 0.0 {
                    BranchStep::Flip(threshold(instr.branch_taken_prob()))
                } else {
                    BranchStep::Taken
                };
                Step {
                    pc: instr.address(),
                    branch,
                    mem,
                }
            })
            .collect();
        let mut ring_words = 0;
        for (slot, (shared, max_offset)) in slots.iter_mut().zip(geometry) {
            slot.ring_start = ring_words;
            ring_words += slot.ring_cap;
            slot.exact_until = match shared {
                None => 0,
                Some((0, _)) => u64::MAX,
                Some((stride, _)) => ((u64::MAX - max_offset) / stride).saturating_add(1),
            };
        }
        StreamingExpander {
            statics,
            steps,
            draws: Draws {
                slots,
                recent: vec![0; ring_words],
                rng,
            },
            dynamic_len,
            emitted: 0,
            cursor: 0,
        }
    }

    /// Consumes the expander, returning the static instruction table.
    ///
    /// [`TraceExpander::expand`] drains the cursor and then takes the
    /// statics through here, building the materialized [`Trace`] without a
    /// second copy of the loop body.
    #[must_use]
    pub fn into_statics(self) -> Vec<Instruction> {
        self.statics
    }
}

impl Draws {
    /// The dynamic instance of static `idx`, decoded as `step`; `last`
    /// when it is the final instruction of the stream.
    #[inline(always)]
    fn instance(
        &mut self,
        statics: &[Instruction],
        idx: usize,
        step: Step,
        last: bool,
    ) -> DynamicInstr {
        let mem_addr = step.mem.map(|mem| self.address(statics, idx, mem));
        let taken = match step.branch {
            BranchStep::None => None,
            BranchStep::Taken => Some(true),
            BranchStep::Flip(below) => Some(self.flip(below)),
            BranchStep::BackEdge => Some(!last),
        };
        DynamicInstr {
            static_index: idx as u32,
            pc: step.pc,
            mem_addr,
            taken,
        }
    }

    /// A flipped branch's outcome: taken, unless the flip test with
    /// [`threshold`] `below` passes, and then a fair coin.  With the test
    /// pair and the coin inside the prefix, the outcome is computed from
    /// the three peeked words and the cursor advances past the two or three
    /// the draws consume, without a branch on the test.
    #[inline(always)]
    fn flip(&mut self, below: u64) -> bool {
        match self.rng.peek() {
            Some([lo, hi, coin]) => {
                let flipped = (pair(lo, hi) >> 11) < below;
                self.rng.pos += 2 + usize::from(flipped);
                !flipped | (coin & 1 == 1)
            }
            None => !self.rng.chance(below) || self.rng.gen::<bool>(),
        }
    }

    /// The data address of static `idx`'s next dynamic instance: with the
    /// stream's re-use probability one of its last `window` addresses,
    /// otherwise the stream's next position.
    ///
    /// Once a stream's ring is full, its capacity a power of two, its next
    /// fresh address an incremental one and the test and pick pairs inside
    /// the prefix, both candidates are computed from the four peeked words
    /// and one is selected: the stream's position and phase advance only
    /// for a fresh address, and the cursor by the two or four words the
    /// draws consume.  Every other instance draws and branches.
    #[inline(always)]
    fn address(&mut self, statics: &[Instruction], idx: usize, mem: MemStep) -> u64 {
        let slot = &mut self.slots[mem.slot as usize];
        let ring = &mut self.recent[slot.ring_start..slot.ring_start + slot.ring_cap];
        let cap = slot.ring_cap;
        if slot.ring_len == cap && cap.is_power_of_two() && slot.pos < slot.exact_until {
            if let Some([test_lo, test_hi, pick_lo, pick_hi]) = self.rng.peek() {
                let reuse = (pair(test_lo, test_hi) >> 11) < slot.reuse_below;
                let mask = cap - 1;
                // `gen_range(0..cap)` of a power-of-two span masks.
                let back = (pair(pick_lo, pick_hi) as usize & mask) + 1;
                let reused = ring[(slot.ring_head + cap - back) & mask];
                let fresh = mem
                    .base
                    .wrapping_add(add_mod(slot.phase, mem.offset, slot.footprint));
                let next_phase = add_mod(slot.phase, slot.stride, slot.footprint);
                let addr = select_unpredictable(reuse, reused, fresh);
                slot.phase = select_unpredictable(reuse, slot.phase, next_phase);
                slot.pos += u64::from(!reuse);
                self.rng.pos += 2 + 2 * usize::from(reuse);
                ring[slot.ring_head] = addr;
                slot.ring_head = (slot.ring_head + 1) & mask;
                return addr;
            }
        }
        let addr = if slot.ring_len > 0 && self.rng.chance(slot.reuse_below) {
            let back = self.rng.below(slot.ring_len) + 1;
            ring[if slot.ring_head >= back {
                slot.ring_head - back
            } else {
                slot.ring_head + slot.ring_cap - back
            }]
        } else {
            let addr = if slot.pos < slot.exact_until {
                let offset = add_mod(slot.phase, mem.offset, slot.footprint);
                slot.phase = add_mod(slot.phase, slot.stride, slot.footprint);
                mem.base.wrapping_add(offset)
            } else {
                // Always `Some`: the step was decoded from this access.
                statics[idx].mem().map_or(0, |m| m.address_at(slot.pos))
            };
            slot.pos += 1;
            addr
        };
        if slot.ring_cap > 0 {
            ring[slot.ring_head] = addr;
            slot.ring_head += 1;
            if slot.ring_head == slot.ring_cap {
                slot.ring_head = 0;
            }
            slot.ring_len = (slot.ring_len + 1).min(slot.ring_cap);
        }
        addr
    }
}

impl TraceSource for StreamingExpander {
    fn statics(&self) -> &[Instruction] {
        &self.statics
    }

    #[inline]
    fn next_dynamic(&mut self) -> Option<DynamicInstr> {
        if self.emitted >= self.dynamic_len {
            return None;
        }
        let idx = self.cursor;
        let step = *self.steps.get(idx)?;
        self.emitted += 1;
        let last = self.emitted == self.dynamic_len;
        self.cursor = if idx + 1 == self.steps.len() {
            0
        } else {
            idx + 1
        };
        Some(self.draws.instance(&self.statics, idx, step, last))
    }

    fn remaining(&self) -> Option<usize> {
        if self.statics.is_empty() {
            Some(0)
        } else {
            Some(self.dynamic_len - self.emitted)
        }
    }

    /// One pass of the loop body at a time, from the cursor to the body's
    /// end or the stream's, with the cursor and the emitted count in
    /// locals.  Always inlined, so a caller's `visit` closure, known at the
    /// call site, becomes the inner loop's body.
    #[inline(always)]
    fn drive(&mut self, visit: &mut dyn FnMut(DynamicInstr) -> ControlFlow<()>) -> ControlFlow<()> {
        let body = self.steps.len();
        let len = self.dynamic_len;
        let mut emitted = self.emitted;
        let mut cursor = self.cursor;
        // lint:hot-loop-start
        while emitted < len && body > 0 {
            let end = cursor + (body - cursor).min(len - emitted);
            for (idx, &step) in (cursor..end).zip(&self.steps[cursor..end]) {
                emitted += 1;
                let d = self
                    .draws
                    .instance(&self.statics, idx, step, emitted == len);
                if visit(d).is_break() {
                    self.emitted = emitted;
                    self.cursor = if idx + 1 == body { 0 } else { idx + 1 };
                    return ControlFlow::Break(());
                }
            }
            cursor = if end == body { 0 } else { end };
        }
        // lint:hot-loop-end
        self.emitted = emitted;
        self.cursor = cursor;
        ControlFlow::Continue(())
    }
}

impl TraceExpander {
    /// Creates the streaming cursor form of this expander over `test_case`.
    ///
    /// The cursor yields the bit-identical stream [`expand`] would
    /// materialize, in O(loop size) memory.
    ///
    /// [`expand`]: TraceExpander::expand
    #[must_use]
    pub fn stream(&self, test_case: &TestCase) -> StreamingExpander {
        StreamingExpander::new(test_case, self.dynamic_len(), self.seed())
    }
}

struct ScheduledPhase<'a> {
    source: Box<dyn TraceSource + 'a>,
    len: usize,
    emitted: usize,
    static_base: u32,
    pc_offset: u64,
    data_offset: u64,
}

/// A [`TraceSource`] that concatenates per-phase sources, each cut at a
/// per-phase dynamic length.
///
/// This is the combinator behind phase-structured workloads: each phase is
/// its own source (typically a [`StreamingExpander`] over a phase-specific
/// test case, or an application-model stream) and the schedule plays them
/// back to back.  `static_index` values are rebased into a combined static
/// table, so the result is a single coherent stream for the simulator.
///
/// [`then_in_region`](PhaseSchedule::then_in_region) additionally offsets a
/// phase's fetch addresses and data addresses, placing phases in disjoint
/// code/data regions — without it, phases built from similar test cases
/// would alias in the instruction cache and branch predictor as if they
/// shared code.
///
/// Because every phase streams, a schedule's memory footprint is the sum of
/// its cursors' O(loop size) states — independent of the total dynamic
/// length, which is what makes long multi-phase scenarios affordable.
#[derive(Default)]
pub struct PhaseSchedule<'a> {
    statics: Vec<Instruction>,
    phases: Vec<ScheduledPhase<'a>>,
    current: usize,
}

impl<'a> PhaseSchedule<'a> {
    /// Creates an empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a phase that plays `len` instructions from `source` (fewer
    /// if the source runs dry first).
    #[must_use]
    pub fn then(self, source: impl TraceSource + 'a, len: usize) -> Self {
        self.then_in_region(source, len, 0, 0)
    }

    /// Appends a phase like [`then`](PhaseSchedule::then), additionally
    /// offsetting every yielded fetch address by `pc_offset` and every data
    /// address by `data_offset`, so the phase occupies its own code and
    /// data regions.
    #[must_use]
    pub fn then_in_region(
        mut self,
        source: impl TraceSource + 'a,
        len: usize,
        pc_offset: u64,
        data_offset: u64,
    ) -> Self {
        let static_base =
            u32::try_from(self.statics.len()).expect("combined static table fits u32");
        self.statics.extend_from_slice(source.statics());
        self.phases.push(ScheduledPhase {
            source: Box::new(source),
            len,
            emitted: 0,
            static_base,
            pc_offset,
            data_offset,
        });
        self
    }

    /// Number of scheduled phases.
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Total scheduled dynamic length (the sum of per-phase lengths; the
    /// actual stream may be shorter if a phase source runs dry).
    #[must_use]
    pub fn scheduled_len(&self) -> usize {
        self.phases.iter().map(|p| p.len).sum()
    }
}

impl TraceSource for PhaseSchedule<'_> {
    fn statics(&self) -> &[Instruction] {
        &self.statics
    }

    fn next_dynamic(&mut self) -> Option<DynamicInstr> {
        while let Some(phase) = self.phases.get_mut(self.current) {
            if phase.emitted < phase.len {
                if let Some(mut d) = phase.source.next_dynamic() {
                    phase.emitted += 1;
                    d.static_index += phase.static_base;
                    d.pc = d.pc.wrapping_add(phase.pc_offset);
                    d.mem_addr = d.mem_addr.map(|a| a.wrapping_add(phase.data_offset));
                    return Some(d);
                }
            }
            self.current += 1;
        }
        None
    }

    fn remaining(&self) -> Option<usize> {
        let mut total = 0usize;
        for phase in &self.phases[self.current.min(self.phases.len())..] {
            let budget = phase.len - phase.emitted;
            total += match phase.source.remaining() {
                Some(r) => budget.min(r),
                None => return None,
            };
        }
        Some(total)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Generator, GeneratorInput};
    use micrograd_isa::{MemAccess, Opcode, Reg};

    fn testcase(seed: u64) -> TestCase {
        let input = GeneratorInput {
            loop_size: 80,
            seed,
            ..GeneratorInput::default()
        };
        Generator::new().generate(&input).unwrap()
    }

    /// Drains `source` through [`TraceSource::drive`], returning the trace
    /// and the words it drew, after checking that pulling
    /// [`TraceSource::next_dynamic`] from a clone yields the same stream
    /// from the same words.
    fn drain(mut source: StreamingExpander) -> (Trace, usize) {
        let mut pulled = source.clone();
        let mut dynamics = Vec::new();
        while let Some(d) = pulled.next_dynamic() {
            dynamics.push(d);
        }
        let trace = collect_trace(&mut source);
        assert_eq!(trace.dynamics(), &dynamics[..], "drive vs next_dynamic");
        assert_eq!(source.draws.rng.pos, pulled.draws.rng.pos, "words drawn");
        (trace, source.draws.rng.pos)
    }

    /// A generator that yields one fixed word.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn the_integer_threshold_is_the_float_test() {
        let mut probabilities = vec![0.0, 2f64.powi(-60), 0.5, 1.0 - 2f64.powi(-53), 1.0];
        // Re-use probabilities of periods 2-10, and flip probabilities.
        probabilities.extend((2..=10).map(|period| 1.0 - 1.0 / f64::from(period)));
        probabilities.extend((1..=10).map(|tenths| f64::from(tenths) / 10.0));
        let mut rng = ChaCha8Rng::seed_from_u64(0x7E57_0053);
        for p in probabilities {
            let below = threshold(p);
            // Words whose top 53 bits are the threshold and its neighbours,
            // with random low bits, then random words.
            let edges: Vec<u64> = [below.wrapping_sub(1), below, below + 1]
                .into_iter()
                .filter(|&top| top < 1 << 53)
                .map(|top| (top << 11) | (rng.next_u64() & 0x7ff))
                .collect();
            assert!(!edges.is_empty(), "p {p}");
            let words: Vec<u64> = edges
                .into_iter()
                .chain((0..20_000).map(|_| rng.next_u64()))
                .collect();
            // The cursor reads each word as its low half, then its high.
            let mut cursor = KeystreamCursor::new(Arc::new(Keystream {
                seed: 0,
                words: words
                    .iter()
                    .flat_map(|&w| [w as u32, (w >> 32) as u32])
                    .collect(),
            }));
            for word in words {
                let float = Fixed(word).gen::<f64>() < p;
                assert_eq!(cursor.chance(below), float, "p {p}, word {word:#x}");
            }
        }
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(1.0), 1 << 53);
        assert_eq!(threshold(f64::NAN), 0);
    }

    /// Every constructor against the map-based reference expander, the
    /// shared one over prefixes shorter than, as long as and longer than
    /// the words the expansion draws: the same stream from the same number
    /// of words.
    fn assert_matches_reference(tc: &TestCase, len: usize, seed: u64, what: &str) {
        let (expected, drawn) = reference::expand(tc, len, seed);
        let (borrowed, borrowed_drawn) = drain(StreamingExpander::new(tc, len, seed));
        assert_eq!(borrowed, expected, "{what}: new");
        assert_eq!(borrowed_drawn, drawn, "{what}: new, words drawn");
        let owned = collect_trace(&mut StreamingExpander::from_test_case(
            tc.clone(),
            len,
            seed,
        ));
        assert_eq!(owned, expected, "{what}: from_test_case");
        let sized = Keystream::new(seed, len).len();
        for words in [
            0,
            1,
            drawn / 2,
            drawn.saturating_sub(1),
            drawn,
            drawn + 1,
            sized,
        ] {
            let keystream = Arc::new(Keystream::with_words(seed, words));
            let (shared, shared_drawn) = drain(StreamingExpander::from_keystream(
                tc.clone(),
                len,
                &keystream,
            ));
            assert_eq!(shared, expected, "{what}: from_keystream, {words} words");
            assert_eq!(shared_drawn, drawn, "{what}: from_keystream, {words} words");
        }
        assert!(drawn <= sized, "{what}: drew {drawn} of {sized} words");
    }

    #[test]
    fn streaming_expander_is_bit_identical_to_expand() {
        for seed in [1u64, 7, 42] {
            let tc = testcase(seed);
            let expander = TraceExpander::new(12_345, seed);
            let materialized = expander.expand(&tc);
            let streamed = collect_trace(&mut expander.stream(&tc));
            assert_eq!(materialized, streamed, "seed {seed}");
            assert_eq!(
                materialized,
                reference::expand(&tc, 12_345, seed).0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn seeded_generator_sweep_matches_the_reference_expander() {
        const OPCODES: [Opcode; 10] = [
            Opcode::Add,
            Opcode::Mul,
            Opcode::FaddD,
            Opcode::FmulD,
            Opcode::Beq,
            Opcode::Bne,
            Opcode::Ld,
            Opcode::Lw,
            Opcode::Sd,
            Opcode::Sw,
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_5AEE);
        for case in 0..120 {
            let mut input = GeneratorInput {
                loop_size: rng.gen_range(4..=300),
                reg_dependency_distance: rng.gen_range(1..=12),
                mem_footprint_kb: [1, 3, 7, 64, 1000, 4096][rng.gen_range(0..6)],
                // 8192 and 3 MB are at least the footprint for most sizes.
                mem_stride: [1, 8, 24, 64, 100, 4096, 8192, 3_000_000][rng.gen_range(0..8)],
                mem_temporal_window: rng.gen_range(0..=40),
                mem_temporal_period: [1, 1, 2, 3, 7, 50][rng.gen_range(0..6)],
                branch_randomness: [0.0, 1.0, rng.gen::<f64>()][rng.gen_range(0..3)],
                seed: rng.gen(),
                ..GeneratorInput::default()
            };
            for op in OPCODES {
                let weight = if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen::<f64>() * 4.0
                };
                input.set_weight(op, weight);
            }
            input.set_weight(Opcode::Add, 1.0);
            let tc = Generator::new().generate(&input).unwrap();
            let len = [0, 1, 2, rng.gen_range(3..6_000)][rng.gen_range(0..4)];
            let seed = rng.gen();
            assert_matches_reference(&tc, len, seed, &format!("case {case}: {input:?}"));
        }
    }

    fn load(stream: u32, stride: u64, footprint: u64, offset: u64, pc: u64) -> Instruction {
        let access = MemAccess {
            stream,
            base: 0x1000_0000 + u64::from(stream) * 0x100_0000,
            stride,
            footprint,
            offset,
        };
        let mut load = Instruction::load(Opcode::Ld, Reg::x(6), Reg::x(10), access);
        load.set_address(pc);
        load
    }

    fn stream(id: u32, window: u64, period: u64) -> MemoryStream {
        MemoryStream {
            id,
            footprint: 4096,
            ratio: 1.0,
            stride: 64,
            reuse_window: window,
            reuse_period: period,
            base: 0x1000_0000 + u64::from(id) * 0x100_0000,
        }
    }

    fn hand_built(statics: Vec<Instruction>, streams: Vec<MemoryStream>) -> TestCase {
        let mut tc = TestCase::new();
        *tc.block_mut().instructions_mut() = statics;
        *tc.streams_mut() = streams;
        tc
    }

    /// A conditional branch flipped with probability `p`.
    fn flip(p: f64) -> Instruction {
        let mut branch = Instruction::branch(Opcode::Beq, Reg::x(5), Reg::x(6), 8);
        branch.set_branch_taken_prob(p);
        branch
    }

    /// Two loads of stream 0, one of stream 1 and two branches flipped
    /// with probability one half; both streams re-use with `window` and
    /// `period`.
    fn mixed(window: u64, period: u64) -> TestCase {
        hand_built(
            vec![
                load(0, 64, 4096, 0, 0x40_0000),
                flip(0.5),
                load(0, 64, 4096, 8, 0x40_0008),
                load(1, 24, 1000, 16, 0x40_000c),
                flip(0.5),
            ],
            vec![stream(0, window, period), stream(1, window, period)],
        )
    }

    #[test]
    fn edge_cases_match_the_reference_expander() {
        let cases = [
            // Re-use period 1 (no re-use) and windows 0, 1, 5 and 64.
            ("period 1", mixed(8, 1)),
            ("window 0", mixed(0, 3)),
            ("window 1", mixed(1, 3)),
            ("window 5", mixed(5, 4)),
            ("window 64", mixed(64, 2)),
            // Flip probabilities 0 (never tested) and 1 (always flipped).
            (
                "flip 0 and 1",
                hand_built(
                    vec![
                        load(0, 64, 4096, 0, 0),
                        flip(0.0),
                        flip(1.0),
                        load(0, 64, 4096, 8, 12),
                        flip(1.0),
                    ],
                    vec![stream(0, 4, 3)],
                ),
            ),
            // A stride at or beyond the footprint, and a zero footprint.
            (
                "stride >= footprint",
                hand_built(
                    vec![load(0, 4096, 4096, 0, 0), load(0, 5000, 5000, 8, 4)],
                    vec![stream(0, 3, 2)],
                ),
            ),
            (
                "zero footprint",
                hand_built(vec![load(0, 64, 0, 8, 0)], vec![stream(0, 2, 2)]),
            ),
            // Statics of one stream disagreeing on geometry: every fresh
            // address comes from `address_at`, also once the ring is full.
            (
                "mixed geometry",
                hand_built(
                    vec![load(0, 64, 4096, 0, 0), load(0, 48, 1000, 8, 4)],
                    vec![stream(0, 4, 3)],
                ),
            ),
            (
                "mixed geometry, window 64",
                hand_built(
                    vec![load(0, 64, 4096, 0, 0), flip(0.5), load(0, 48, 1000, 8, 8)],
                    vec![stream(0, 64, 2)],
                ),
            ),
            // pos * stride leaves u64 after four accesses.
            (
                "stride overflow",
                hand_built(
                    vec![load(0, 1 << 62, 1000, 0, 0), load(0, 1 << 62, 1000, 8, 4)],
                    vec![stream(0, 2, 2)],
                ),
            ),
            // Stream ids missing from streams(), and a duplicated id (the
            // last descriptor wins).
            (
                "missing stream",
                hand_built(
                    vec![load(0, 64, 4096, 0, 0), load(7, 64, 4096, 0, 4)],
                    vec![stream(0, 4, 3)],
                ),
            ),
            (
                "duplicate stream id",
                hand_built(
                    vec![load(0, 64, 4096, 0, 0)],
                    vec![stream(0, 2, 1), stream(0, 6, 5)],
                ),
            ),
            // One-instruction bodies: a lone back-edge and a lone load.
            ("lone branch", hand_built(vec![flip(0.5)], Vec::new())),
            (
                "lone load",
                hand_built(vec![load(0, 64, 4096, 0, 0)], vec![stream(0, 3, 2)]),
            ),
        ];
        for (what, tc) in &cases {
            for len in [0, 1, 2, 7, 3_000] {
                assert_matches_reference(tc, len, 11, &format!("{what}, len {len}"));
            }
        }
    }

    #[test]
    fn streaming_expander_reports_remaining() {
        let tc = testcase(3);
        let mut s = TraceExpander::new(100, 3).stream(&tc);
        assert_eq!(s.remaining(), Some(100));
        for left in (0..100).rev() {
            assert!(s.next_dynamic().is_some());
            assert_eq!(s.remaining(), Some(left));
        }
        assert!(s.next_dynamic().is_none());
        assert_eq!(s.remaining(), Some(0));
    }

    #[test]
    fn empty_testcase_stream_is_empty() {
        let tc = TestCase::new();
        let mut s = TraceExpander::new(50, 1).stream(&tc);
        assert_eq!(s.remaining(), Some(0));
        assert!(s.next_dynamic().is_none());
    }

    #[test]
    fn trace_cursor_replays_the_trace() {
        let tc = testcase(5);
        let trace = TraceExpander::new(2_000, 5).expand(&tc);
        let replayed = collect_trace(&mut trace.source());
        assert_eq!(trace, replayed);
    }

    #[test]
    fn windowed_source_matches_materialized_slice() {
        // A window over a fresh stream must yield exactly the dynamics()
        // slice of the materialized expansion — the equivalence per-simpoint
        // replay relies on.
        let tc = testcase(21);
        let expander = TraceExpander::new(5_000, 21);
        let trace = expander.expand(&tc);
        for (start, len) in [(0usize, 500usize), (1_234, 777), (4_900, 100), (4_900, 500)] {
            let mut window = expander.stream(&tc).window(start, len);
            assert_eq!(window.statics(), trace.statics());
            let windowed = collect_trace(&mut window);
            let end = (start + len).min(trace.len());
            assert_eq!(
                windowed.dynamics(),
                &trace.dynamics()[start.min(trace.len())..end],
                "window [{start}, {start}+{len})"
            );
        }
    }

    #[test]
    fn windowed_source_reports_remaining() {
        let tc = testcase(22);
        let expander = TraceExpander::new(1_000, 22);
        // Before any pull, remaining accounts for the still-unskipped prefix.
        let mut w = expander.stream(&tc).window(200, 300);
        assert_eq!(w.remaining(), Some(300));
        assert!(w.next_dynamic().is_some());
        assert_eq!(w.remaining(), Some(299));
        // A window extending past the stream is truncated.
        let mut tail = expander.stream(&tc).window(900, 300);
        assert_eq!(tail.remaining(), Some(100));
        assert_eq!(collect_trace(&mut tail).len(), 100);
        // A window starting past the stream is empty.
        let mut past = expander.stream(&tc).window(2_000, 10);
        assert_eq!(past.remaining(), Some(0));
        assert!(past.next_dynamic().is_none());
    }

    #[test]
    fn phase_schedule_concatenates_and_rebases() {
        let tc_a = testcase(11);
        let tc_b = testcase(12);
        let a_len = tc_a.block().len();
        let expander = TraceExpander::new(1_000, 11);
        let mut schedule = PhaseSchedule::new()
            .then(expander.stream(&tc_a), 300)
            .then_in_region(expander.stream(&tc_b), 200, 0x0100_0000, 0x1000_0000);
        assert_eq!(schedule.phase_count(), 2);
        assert_eq!(schedule.scheduled_len(), 500);
        assert_eq!(
            schedule.statics().len(),
            tc_a.block().len() + tc_b.block().len()
        );
        assert_eq!(schedule.remaining(), Some(500));

        let trace = collect_trace(&mut schedule);
        assert_eq!(trace.len(), 500);
        // First phase indices stay in the first static table...
        for d in &trace.dynamics()[..300] {
            assert!((d.static_index as usize) < a_len);
            assert!(d.pc < 0x0100_0000);
        }
        // ...second-phase indices and addresses are rebased.
        for d in &trace.dynamics()[300..] {
            assert!((d.static_index as usize) >= a_len);
            assert!(d.pc >= 0x0100_0000);
            if let Some(addr) = d.mem_addr {
                assert!(addr >= 0x1000_0000);
            }
        }

        // The first phase's prefix is the untouched underlying stream.
        let raw = expander.expand(&tc_a);
        assert_eq!(&trace.dynamics()[..300], &raw.dynamics()[..300]);
    }

    #[test]
    fn phase_schedule_stops_when_a_source_runs_dry() {
        let tc = testcase(13);
        // Source only holds 50 instructions but the phase asks for 200.
        let schedule = PhaseSchedule::new()
            .then(TraceExpander::new(50, 13).stream(&tc), 200)
            .then(TraceExpander::new(40, 13).stream(&tc), 40);
        let mut schedule = schedule;
        assert_eq!(schedule.remaining(), Some(90));
        let trace = collect_trace(&mut schedule);
        assert_eq!(trace.len(), 90);
    }

    #[test]
    fn empty_schedule_is_empty() {
        let mut s = PhaseSchedule::new();
        assert_eq!(s.remaining(), Some(0));
        assert!(s.next_dynamic().is_none());
        assert!(s.statics().is_empty());
        assert_eq!(s.scheduled_len(), 0);
    }

    #[test]
    fn keystream_holds_the_expansion_seeds_chacha8_words() {
        for (seed, len, words) in [(3u64, 0usize, 0usize), (3, 1, 4), (9, 25_000, 100_000)] {
            let keystream = Keystream::new(seed, len);
            assert_eq!(keystream.len(), words);
            assert_eq!(keystream.seed, seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_7ACE);
            let expected: Vec<u32> = (0..words).map(|_| rng.next_u32()).collect();
            assert_eq!(
                &keystream.words[..],
                &expected[..],
                "seed {seed}, len {len}"
            );
        }
        // Capped at 2^18 words: 1 MiB.
        assert_eq!(Keystream::new(1, 65_536).len(), 1 << 18);
        assert_eq!(Keystream::new(1, 100_000_000).len(), 1 << 18);
        assert_eq!(
            format!("{:?}", Keystream::new(5, 2)),
            "Keystream { seed: 5, len: 8 }"
        );
    }

    #[test]
    fn the_cursor_continues_the_plain_generator_past_the_prefix() {
        // Prefix ends on and around the 16-word blocks and 64-word refills
        // of the live generator; odd lengths make a `next_u64` straddle the
        // prefix's end.
        for words in [0usize, 1, 2, 15, 16, 17, 63, 64, 65, 127, 128, 129, 300] {
            for lead in 0..2 {
                let mut plain = expansion_rng(8);
                let mut cursor = KeystreamCursor::new(Arc::new(Keystream::with_words(8, words)));
                for _ in 0..lead {
                    assert_eq!(cursor.next_u32(), plain.next_u32());
                }
                for i in 0..200 {
                    if i % 3 == 2 {
                        assert_eq!(
                            cursor.next_u32(),
                            plain.next_u32(),
                            "{words} words, draw {i}"
                        );
                    } else {
                        assert_eq!(
                            cursor.next_u64(),
                            plain.next_u64(),
                            "{words} words, draw {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_instruction_draws_at_most_four_words() {
        // Re-use probability 1 (a period of u64::MAX) makes every memory op
        // but a stream's first re-use an address; flip probability 1 makes
        // every body branch draw its coin.
        let loads = hand_built(
            vec![load(0, 64, 4096, 0, 0), load(1, 64, 4096, 8, 4)],
            vec![stream(0, 8, u64::MAX), stream(1, 3, u64::MAX)],
        );
        let mixed = hand_built(
            vec![
                load(0, 64, 4096, 0, 0),
                flip(1.0),
                load(0, 64, 4096, 8, 8),
                flip(1.0),
                flip(1.0),
            ],
            vec![stream(0, 5, u64::MAX)],
        );
        for len in [1usize, 2, 3, 1_000, 7_777] {
            // Four words per load but the first of each stream.
            let (_, drawn) = drain(StreamingExpander::new(&loads, len, 4));
            assert_eq!(drawn, 4 * len - 4 * len.min(2), "loads, len {len}");
            let (_, drawn) = drain(StreamingExpander::new(&mixed, len, 4));
            assert!(drawn <= 4 * len, "mixed, len {len}: {drawn} words");
            assert_matches_reference(&loads, len, 4, &format!("loads, len {len}"));
            assert_matches_reference(&mixed, len, 4, &format!("mixed, len {len}"));
        }
    }

    #[test]
    fn every_temporal_window_reuses_from_a_full_ring() {
        // Every `MEM_TEMP1` window with re-use periods 2-10, long enough
        // that both streams fill their rings and then re-use from them:
        // stream 1, one access per pass, fills after five passes per
        // window slot.
        for window in (0..10).map(|bits| 1u64 << bits) {
            for period in 2..=10 {
                let len = (60 * window as usize).clamp(3_000, 25_000);
                assert_matches_reference(
                    &mixed(window, period),
                    len,
                    window * 31 + period,
                    &format!("window {window}, period {period}, len {len}"),
                );
            }
        }
    }

    #[test]
    fn a_prefix_ending_inside_a_draw_falls_back() {
        // Prefixes that end one, two and three words into a draw, and at
        // its last word: a re-use test that re-uses (four words) or not
        // (two) from a full ring, and a flip test that flips (three) or
        // not (two).
        let tc = mixed(4, 3);
        let (len, seed) = (2_000, 17);
        let (expected, drawn) = reference::expand(&tc, len, seed);
        // Each instance's first word, its word count and whether it is a
        // memory access.
        let mut private = StreamingExpander::new(&tc, len, seed);
        let mut draws = Vec::new();
        loop {
            let start = private.draws.rng.pos;
            let Some(d) = private.next_dynamic() else {
                break;
            };
            draws.push((start, private.draws.rng.pos - start, d.mem_addr.is_some()));
        }
        for (words, mem) in [(4, true), (2, true), (3, false), (2, false)] {
            // The last such draw, long after the rings filled.
            let &(start, ..) = draws
                .iter()
                .rev()
                .find(|&&(_, w, m)| w == words && m == mem)
                .expect("the stream holds every kind of draw");
            for into in 1..=4 {
                let keystream = Arc::new(Keystream::with_words(seed, start + into));
                let (shared, shared_drawn) = drain(StreamingExpander::from_keystream(
                    tc.clone(),
                    len,
                    &keystream,
                ));
                let what = format!("{words}-word draw at word {start}, prefix {into} into it");
                assert_eq!(shared, expected, "{what}");
                assert_eq!(shared_drawn, drawn, "{what}: words drawn");
            }
        }
    }

    #[test]
    fn a_drive_breaking_after_each_selected_instance_resumes_there() {
        // Over a prefix that covers the expansion, every memory access and
        // flipped branch past a ring's filling takes a select path; the
        // visit breaks after every instance with an outcome and the next
        // `drive` resumes.
        for (window, period) in [(1, 2), (8, 3), (512, 10)] {
            let tc = mixed(window, period);
            let (len, seed) = (20_000, 23);
            let (expected, drawn) = reference::expand(&tc, len, seed);
            let keystream = Arc::new(Keystream::new(seed, len));
            let mut source = StreamingExpander::from_keystream(tc, len, &keystream);
            let mut dynamics = Vec::new();
            let mut breaks = 0;
            while source
                .drive(&mut |d| {
                    dynamics.push(d);
                    if d.mem_addr.is_some() || d.taken.is_some() {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .is_break()
            {
                breaks += 1;
            }
            assert_eq!(breaks, len, "window {window}: every instance breaks");
            assert_eq!(dynamics, expected.dynamics(), "window {window}");
            assert_eq!(source.draws.rng.pos, drawn, "window {window}: words drawn");
        }
    }
}
