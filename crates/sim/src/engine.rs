//! The cycle-approximate out-of-order core model.

use crate::cancel::{CancelToken, Cancelled};
use crate::config::CoreConfig;
use crate::hierarchy::MemoryHierarchy;
use crate::stats::{ActivityCounts, SimStats};
use crate::GsharePredictor;
use micrograd_codegen::{Trace, TraceSource};
use micrograd_isa::{FuncUnit, InstrClass, Instruction, LatencyModel, Opcode, Reg, MAX_SOURCES};
use std::ops::ControlFlow;

/// A fixed-capacity ring recording one `u64` per in-flight entry of a
/// window: every instruction for the ROB and reservation stations, every
/// memory op for the LSQ.
///
/// The simulator only ever consults the entry exactly `capacity` entries
/// back — "the cycle the entry leaving the window frees its slot" — so a
/// flat `capacity`-sized buffer with a wrapping write pointer is
/// sufficient: right before entry `i` overwrites the slot under the
/// pointer, that slot still holds entry `i - capacity`.  Exactly one
/// [`record`](WindowRing::record) per entry keeps the pointer in lock-step
/// with the stream (no division on the hot path).
///
/// Slots start at 0, below every dispatch cycle, so the hot loop takes an
/// unconditional `max` with [`evicted`](WindowRing::evicted) even before the
/// window has filled.  A zero-capacity window (no limit) is a single slot
/// that only ever holds 0.
#[derive(Debug, Clone)]
struct WindowRing {
    slots: Vec<u64>,
    pos: usize,
    /// Mask applied to recorded values: 0 for a zero-capacity window.
    keep: u64,
}

impl WindowRing {
    fn new(capacity: usize) -> Self {
        WindowRing {
            slots: vec![0; capacity.max(1)],
            pos: 0,
            keep: if capacity == 0 { 0 } else { u64::MAX },
        }
    }

    /// The recorded value of the entry `capacity` back, or 0 while the
    /// window has not filled.
    #[inline]
    fn evicted(&self) -> u64 {
        self.slots[self.pos]
    }

    #[inline]
    fn record(&mut self, value: u64) {
        self.slots[self.pos] = value & self.keep;
        self.pos += 1;
        if self.pos == self.slots.len() {
            self.pos = 0;
        }
    }

    /// Rewinds the ring to its freshly constructed state without touching
    /// the allocation.
    fn reset(&mut self) {
        self.slots.fill(0);
        self.pos = 0;
    }
}

/// The free cycles of every functional unit, one sorted ring per unit kind.
///
/// Units of a kind are interchangeable, so only the multiset of their free
/// cycles matters: issuing takes the earliest free cycle out and puts the
/// unit's next free cycle (never earlier) back in.  Each kind keeps its
/// free cycles sorted in a ring, earliest at `head`: the earliest free
/// unit is one load, and occupying it retires the head and inserts the new
/// free cycle from the ring's end — usually in place, since a unit issued
/// now tends to free up last — instead of scanning every unit of the
/// class.  Results are identical to scanning for the first earliest-free
/// unit.
#[derive(Debug, Clone)]
struct UnitTable {
    /// Kind `k` owns `free[start[k]..start[k] + count[k]]`.
    free: Vec<u64>,
    start: [usize; 4],
    count: [usize; 4],
    /// Position of each kind's earliest free cycle in its ring.
    head: [usize; 4],
}

impl UnitTable {
    fn new(config: &CoreConfig) -> Self {
        let count = [
            FuncUnit::Alu,
            FuncUnit::Complex,
            FuncUnit::Fp,
            FuncUnit::Mem,
        ]
        .map(|u| config.units_for(u).max(1) as usize);
        let mut start = [0; 4];
        for k in 1..4 {
            start[k] = start[k - 1] + count[k - 1];
        }
        UnitTable {
            free: vec![0; count.iter().sum()],
            start,
            count,
            head: [0; 4],
        }
    }

    fn reset(&mut self) {
        self.free.fill(0);
        self.head = [0; 4];
    }

    /// The earliest free cycle of a unit of kind `kind`.
    #[inline]
    fn earliest(&self, kind: usize) -> u64 {
        self.free[self.start[kind] + self.head[kind]]
    }

    /// Occupies the earliest free unit of kind `kind` until `until`, which
    /// must not be below [`earliest`](Self::earliest).
    #[inline]
    fn occupy(&mut self, kind: usize, until: u64) {
        let n = self.count[kind];
        let ring = &mut self.free[self.start[kind]..self.start[kind] + n];
        // The head's slot becomes the ring's last position; walk back from
        // it, moving later free cycles up, until `until` fits.
        let mut slot = self.head[kind];
        self.head[kind] = if slot + 1 == n { 0 } else { slot + 1 };
        for _ in 1..n {
            let prev = if slot == 0 { n - 1 } else { slot - 1 };
            if ring[prev] <= until {
                break;
            }
            ring[slot] = ring[prev];
            slot = prev;
        }
        ring[slot] = until;
    }
}

/// One static instruction, decoded once per run into a flat, `Copy`
/// scheduling record.
///
/// Decoding each static instruction once hoists the opcode's class,
/// functional unit, latency and energy weight out of the hot loop: the
/// dynamic path reads one cache-line-friendly record with pre-filtered
/// (non-zero) flat register indices and precomputed latencies.
#[derive(Debug, Clone, Copy)]
struct DecodedInstr {
    is_mem: bool,
    /// All ones for a load, whose completion waits for its data; 0
    /// otherwise (a store retires through the store buffer).
    load_mask: u64,
    /// Activity counter this instruction increments: an index into
    /// [`KINDS`].
    kind: u8,
    /// Functional-unit kind: which of the [`UnitTable`]'s rings it issues to.
    unit_slot: u8,
    is_conditional_branch: bool,
    /// Execution latency in cycles.
    latency: u64,
    /// Cycles the functional unit stays busy (latency for unpipelined ops).
    occupancy: u64,
    /// Per-execution energy weight.
    energy: f64,
    /// Flat destination register index + 1; 0 when there is no (non-zero)
    /// destination.
    dest_plus_one: u16,
    /// Number of valid entries in `sources`.
    num_sources: u8,
    /// Flat indices of the non-zero source registers.
    sources: [u16; MAX_SOURCES],
}

fn unit_slot(u: FuncUnit) -> usize {
    match u {
        FuncUnit::Alu => 0,
        FuncUnit::Complex => 1,
        FuncUnit::Fp => 2,
        FuncUnit::Mem => 3,
    }
}

/// The per-instruction activity counters, by decoded `kind`, with the
/// class each one counts: each instruction increments exactly one, and
/// they become the per-kind fields of [`ActivityCounts`].  Counting by
/// index keeps the class out of the hot loop's branches.
const KINDS: [InstrClass; 6] = [
    InstrClass::Integer, // simple ALU
    InstrClass::Integer, // complex unit
    InstrClass::Float,
    InstrClass::Branch,
    InstrClass::Load,
    InstrClass::Store,
];

fn kind(class: InstrClass, unit: FuncUnit) -> u8 {
    match (class, unit) {
        (InstrClass::Integer, FuncUnit::Complex) => 1,
        (InstrClass::Integer, _) => 0,
        (InstrClass::Float, _) => 2,
        (InstrClass::Branch, _) => 3,
        (InstrClass::Load, _) => 4,
        (InstrClass::Store, _) => 5,
    }
}

fn decode(instr: &Instruction, latency: &LatencyModel) -> DecodedInstr {
    let opcode = instr.opcode();
    let exec_latency = u64::from(latency.latency(opcode));
    // Divides and square roots occupy their unit unpipelined.
    let occupancy = match opcode {
        Opcode::Div | Opcode::Rem | Opcode::FdivD | Opcode::FsqrtD => exec_latency,
        _ => 1,
    };
    let mut sources = [0u16; MAX_SOURCES];
    let mut num_sources = 0u8;
    for src in instr.sources() {
        if src.is_zero() {
            continue;
        }
        debug_assert!((num_sources as usize) < MAX_SOURCES, "source list overflow");
        sources[num_sources as usize] = src.flat_index() as u16;
        num_sources += 1;
    }
    let dest_plus_one = instr
        .dest()
        .filter(|d| !d.is_zero())
        .map_or(0, |d| d.flat_index() as u16 + 1);
    DecodedInstr {
        is_mem: opcode.class().is_memory(),
        load_mask: if opcode.class() == InstrClass::Load {
            u64::MAX
        } else {
            0
        },
        kind: kind(opcode.class(), latency.unit(opcode)),
        unit_slot: unit_slot(latency.unit(opcode)) as u8,
        is_conditional_branch: opcode.is_conditional_branch(),
        latency: exec_latency,
        occupancy,
        energy: latency.energy_weight(opcode),
        dest_plus_one,
        num_sources,
        sources,
    }
}

/// A scoreboard-style out-of-order core simulator.
///
/// The model processes the dynamic trace in program order and computes, for
/// every instruction, the cycle at which it fetches, dispatches, issues and
/// completes, subject to the structural and data constraints of the
/// configured core:
///
/// * **front-end width** — at most `frontend_width` instructions enter the
///   pipeline per cycle, and instruction-cache misses stall the fetch
///   stream;
/// * **branch prediction** — mispredicted conditional branches redirect the
///   front end after the branch resolves plus the redirect penalty;
/// * **windows** — dispatch is limited by ROB, reservation-station and (for
///   memory operations) LSQ occupancy;
/// * **data dependences** — an instruction issues only after all of its
///   source registers' producers have completed, which is how the register
///   dependency distance knob shapes ILP;
/// * **functional units** — each instruction occupies one unit of its class
///   (unpipelined for divides), bounding per-class throughput;
/// * **memory hierarchy** — loads pay the L1D/L2/DRAM latency of their
///   address; stores retire through a store buffer.
///
/// The result is not a cycle-accurate Gem5 replacement, but it reproduces
/// the first-order sensitivities the MicroGrad tuning loop depends on, at a
/// cost of well under a microsecond per simulated instruction.
///
/// # Reuse and allocation discipline
///
/// The simulator owns every piece of mutable run state — memory hierarchy,
/// branch predictor, window rings, register scoreboard, decoded-instruction
/// table — and [`run_source`](Simulator::run_source) *resets* rather than
/// reallocates it, so `run`/`run_source` take `&mut self` and back-to-back
/// runs are bit-identical to runs on freshly constructed simulators (tested)
/// while touching the allocator only to (re)grow buffers.  The
/// per-instruction path performs **zero heap allocations**: the total
/// allocation count of a run is independent of the trace length (see
/// `docs/performance.md` and the `alloc_discipline` test).  Batch workers in
/// `micrograd-core` exploit this by reusing one simulator per worker thread
/// across all evaluations of a batch.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: CoreConfig,
    latency: LatencyModel,
    hierarchy: MemoryHierarchy,
    predictor: GsharePredictor,
    // Reusable run state (reset per run, reallocating nothing).
    completion_ring: WindowRing,
    issue_ring: WindowRing,
    /// Completion cycles of the last `lsq_entries` memory operations.
    lsq_ring: WindowRing,
    reg_ready: Vec<u64>,
    units: UnitTable,
    decoded: Vec<DecodedInstr>,
}

impl Simulator {
    /// Creates a simulator for a core configuration.
    #[must_use]
    pub fn new(config: CoreConfig) -> Self {
        let hierarchy = MemoryHierarchy::new(&config);
        let predictor = GsharePredictor::new(config.branch_predictor);
        Simulator {
            completion_ring: WindowRing::new(config.rob_entries as usize),
            issue_ring: WindowRing::new(config.rs_entries as usize),
            lsq_ring: WindowRing::new(config.lsq_entries as usize),
            reg_ready: vec![0; Reg::FLAT_COUNT],
            units: UnitTable::new(&config),
            decoded: Vec::new(),
            hierarchy,
            predictor,
            latency: LatencyModel::default(),
            config,
        }
    }

    /// Retired-instruction cadence of cancellation polls in
    /// [`run_source_cancellable`](Simulator::run_source_cancellable).
    ///
    /// Must be a power of two: the hot loop tests `n & (INTERVAL - 1) == 0`
    /// instead of a division.  4096 instructions bound the cancellation
    /// latency to microseconds while keeping the poll cost (one relaxed
    /// atomic load) far below measurement noise.
    pub const CANCEL_CHECK_INTERVAL: usize = 4096;

    /// The core configuration.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Rewinds all run state to the freshly constructed equivalent without
    /// releasing any allocation.
    fn reset_run_state(&mut self) {
        self.hierarchy.reset();
        self.predictor.reset();
        self.completion_ring.reset();
        self.issue_ring.reset();
        self.lsq_ring.reset();
        self.reg_ready.fill(0);
        self.units.reset();
    }

    /// Runs a materialized dynamic trace to completion and returns the
    /// statistics.
    ///
    /// Thin adapter over [`run_source`](Simulator::run_source) via
    /// [`Trace::source`]; the two paths are bit-identical.
    #[must_use]
    pub fn run(&mut self, trace: &Trace) -> SimStats {
        self.run_source(&mut trace.source())
    }

    /// Runs a streaming [`TraceSource`] to exhaustion and returns the
    /// statistics.
    ///
    /// This is the fused single-pass path: the source's
    /// [`drive`](TraceSource::drive) loop produces each dynamic instruction
    /// and runs the simulator's per-instruction body on it at once, so
    /// nothing is ever materialized.  Per-instruction bookkeeping is held in
    /// ring buffers bounded by the ROB, reservation-station and LSQ depths
    /// of the configured core — peak memory is O(window sizes), independent
    /// of trace length — and the loop performs no heap allocation (the
    /// static table is decoded once per run into a reused flat record
    /// table).
    #[must_use]
    pub fn run_source<S: TraceSource + ?Sized>(&mut self, source: &mut S) -> SimStats {
        match self.run_source_cancellable(source, &CancelToken::never()) {
            Ok(stats) => stats,
            Err(Cancelled) => unreachable!("a never-cancelled token cannot cancel a run"),
        }
    }

    /// [`run_source`](Simulator::run_source) with cooperative cancellation.
    ///
    /// The token is polled every [`CANCEL_CHECK_INTERVAL`] retired
    /// instructions (one relaxed atomic load per poll, so the overhead on
    /// the hot loop is unmeasurable — see `docs/performance.md`).  On
    /// cancellation the partial run is abandoned and [`Cancelled`] is
    /// returned; the simulator remains valid and reusable — the next run
    /// resets all state as usual.
    ///
    /// [`CANCEL_CHECK_INTERVAL`]: Simulator::CANCEL_CHECK_INTERVAL
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when `cancel` is observed cancelled (explicitly or by
    /// deadline) at a poll boundary.
    pub fn run_source_cancellable<S: TraceSource + ?Sized>(
        &mut self,
        source: &mut S,
        cancel: &CancelToken,
    ) -> Result<SimStats, Cancelled> {
        cancel.check()?;
        let mut stats = SimStats {
            frequency_hz: self.config.frequency_hz,
            ..SimStats::default()
        };

        self.reset_run_state();
        let mut activity = ActivityCounts::default();
        let mut kind_counts = [0u64; KINDS.len()];

        // The static table is stable for the source's lifetime (trait
        // contract), so decode it once into a flat `Copy` record table: a
        // per-instruction virtual `statics()` call — let alone a pointer
        // chase through `Vec<Reg>` source lists — would sit on the hottest
        // loop in the framework.
        self.decoded.clear();
        for instr in source.statics() {
            let record = decode(instr, &self.latency);
            self.decoded.push(record);
        }

        let cfg = &self.config;
        let frontend_width = cfg.frontend_width;
        let frontend_depth = u64::from(cfg.frontend_depth);
        let l1i_hit_latency = cfg.l1i.hit_latency;
        let mispredict_penalty = u64::from(cfg.branch_predictor.mispredict_penalty);
        let line_bytes = cfg.l1i.line_bytes.max(1);
        let line_shift = line_bytes
            .is_power_of_two()
            .then(|| line_bytes.trailing_zeros());

        let mut fetch_cycle: u64 = 0;
        let mut fetched_this_cycle: u32 = 0;
        let mut fetch_stall_until: u64 = 0;
        let mut last_fetch_line: u64 = u64::MAX;
        let mut max_completion: u64 = 0;
        let mut n: usize = 0;

        // The single per-instruction body, run by the source's own loop:
        // inlined into it when the source is a concrete type.  It breaks
        // only on cancellation.
        // lint:hot-loop-start
        let flow = source.drive(&mut |dynamic| {
            n += 1;
            if n & (Self::CANCEL_CHECK_INTERVAL - 1) == 0 && cancel.check().is_err() {
                return ControlFlow::Break(());
            }
            let instr = self.decoded[dynamic.static_index as usize];

            // ---------------- fetch ----------------
            if fetched_this_cycle >= frontend_width {
                fetch_cycle += 1;
                fetched_this_cycle = 0;
            }
            if fetch_cycle < fetch_stall_until {
                fetch_cycle = fetch_stall_until;
                fetched_this_cycle = 0;
            }
            // Instruction cache: one access per line transition.
            let line = match line_shift {
                Some(shift) => dynamic.pc >> shift,
                None => dynamic.pc / line_bytes,
            };
            if line != last_fetch_line {
                let lat = self.hierarchy.access_instruction(dynamic.pc);
                let extra = lat.saturating_sub(l1i_hit_latency);
                if extra > 0 {
                    fetch_cycle += u64::from(extra);
                    fetched_this_cycle = 0;
                }
                last_fetch_line = line;
            }
            let this_fetch = fetch_cycle;
            fetched_this_cycle += 1;

            // ---------------- dispatch (window constraints) ----------------
            let mut dispatch = (this_fetch + frontend_depth)
                .max(self.completion_ring.evicted())
                .max(self.issue_ring.evicted());
            if instr.is_mem {
                // The memory op `lsq_entries` back is the one whose
                // retirement frees the LSQ slot this op needs.
                dispatch = dispatch.max(self.lsq_ring.evicted());
            }

            // ---------------- issue (data deps + functional units) --------
            let mut ready = dispatch;
            for &src in &instr.sources[..instr.num_sources as usize] {
                ready = ready.max(self.reg_ready[src as usize]);
            }
            activity.regfile_reads += u64::from(instr.num_sources);
            let kind = instr.unit_slot as usize;
            let issue = ready.max(self.units.earliest(kind));
            self.units.occupy(kind, issue + instr.occupancy);
            self.issue_ring.record(issue);

            // ---------------- execute / memory ----------------
            let mut complete = issue + instr.latency;
            if instr.is_mem {
                // An addressless memory op (no stream descriptor behind the
                // static instruction) must not touch the hierarchy: a
                // fabricated address 0 would alias line 0 / set 0 and
                // pollute the L1D statistics of unrelated accesses.
                if let Some(addr) = dynamic.mem_addr {
                    let lat = self.hierarchy.access_data(dynamic.pc, addr);
                    // Stores retire through the store buffer: the cache
                    // access happens off the critical path but is counted.
                    complete += u64::from(lat) & instr.load_mask;
                }
            } else if instr.is_conditional_branch {
                let taken = dynamic.taken.unwrap_or(false);
                let correct = self.predictor.predict_and_update(dynamic.pc, taken);
                // A mispredict stalls fetch until the redirect; the mask
                // zeroes the redirect of a correct prediction.
                let redirect = (complete + mispredict_penalty) & u64::from(correct).wrapping_sub(1);
                fetch_stall_until = fetch_stall_until.max(redirect);
            }
            kind_counts[instr.kind as usize] += 1;
            activity.weighted_exec_energy += instr.energy;

            // ---------------- writeback ----------------
            if instr.dest_plus_one != 0 {
                self.reg_ready[instr.dest_plus_one as usize - 1] = complete;
                activity.regfile_writes += 1;
            }
            self.completion_ring.record(complete);
            if instr.is_mem {
                self.lsq_ring.record(complete);
            }
            max_completion = max_completion.max(complete);
            ControlFlow::Continue(())
        });
        // lint:hot-loop-end
        if flow.is_break() {
            return Err(Cancelled);
        }

        if n == 0 {
            return Ok(stats);
        }
        stats.instructions = n as u64;
        stats.cycles = max_completion.max(fetch_cycle + 1);
        stats.hierarchy = self.hierarchy.stats();
        stats.branch = self.predictor.stats();
        let [int_alu, int_complex, fp, branches, loads, stores] = kind_counts;
        activity.fetched = n as u64;
        activity.rob_writes = n as u64;
        activity.int_alu_ops = int_alu;
        activity.int_complex_ops = int_complex;
        activity.fp_ops = fp;
        activity.branches = branches;
        activity.loads = loads;
        activity.stores = stores;
        activity.lsq_ops = loads + stores;
        stats.activity = activity;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micrograd_codegen::{Generator, GeneratorInput, TraceExpander};
    use micrograd_isa::Opcode;

    const TRACE_LEN: usize = 40_000;

    fn trace_for(mutate: impl FnOnce(&mut GeneratorInput)) -> Trace {
        let mut input = GeneratorInput {
            loop_size: 200,
            seed: 17,
            ..GeneratorInput::default()
        };
        mutate(&mut input);
        let tc = Generator::new().generate(&input).unwrap();
        TraceExpander::new(TRACE_LEN, 17).expand(&tc)
    }

    #[test]
    fn empty_trace_produces_zero_stats() {
        let mut sim = Simulator::new(CoreConfig::small());
        let stats = sim.run(&Trace::new(Vec::new(), Vec::new()));
        assert_eq!(stats.instructions, 0);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.ipc(), 0.0);
    }

    #[test]
    fn streaming_source_matches_materialized_run() {
        // The fused single-pass path over a StreamingExpander must produce
        // bit-identical statistics to the two-pass materialized run, on
        // both cores — the windows (ROB/RS/LSQ) differ between them, which
        // exercises all three ring buffers at different depths.
        let input = GeneratorInput {
            loop_size: 200,
            seed: 17,
            ..GeneratorInput::default()
        };
        let tc = Generator::new().generate(&input).unwrap();
        let expander = TraceExpander::new(TRACE_LEN, 17);
        let trace = expander.expand(&tc);
        for config in [CoreConfig::small(), CoreConfig::large()] {
            let mut sim = Simulator::new(config);
            let materialized = sim.run(&trace);
            let streamed = sim.run_source(&mut expander.stream(&tc));
            assert_eq!(materialized, streamed);
        }
    }

    #[test]
    fn cancellable_run_with_never_token_matches_plain_run() {
        let trace = trace_for(|_| {});
        let mut sim = Simulator::new(CoreConfig::small());
        let plain = sim.run(&trace);
        let cancellable = sim
            .run_source_cancellable(&mut trace.source(), &CancelToken::never())
            .unwrap();
        assert_eq!(plain, cancellable);
    }

    #[test]
    fn pre_cancelled_token_aborts_before_the_loop() {
        let trace = trace_for(|_| {});
        let token = CancelToken::never();
        token.cancel();
        let mut sim = Simulator::new(CoreConfig::small());
        assert_eq!(
            sim.run_source_cancellable(&mut trace.source(), &token),
            Err(Cancelled)
        );
    }

    #[test]
    fn mid_run_cancellation_aborts_and_leaves_the_simulator_reusable() {
        /// Cancels the shared token after yielding `after` instructions, so
        /// the in-loop poll (every `CANCEL_CHECK_INTERVAL` instructions) is
        /// what aborts the run — not the entry check.
        struct CancelAfter<'a, S> {
            inner: S,
            token: &'a CancelToken,
            after: usize,
            seen: usize,
        }
        impl<S: TraceSource> TraceSource for CancelAfter<'_, S> {
            fn statics(&self) -> &[Instruction] {
                self.inner.statics()
            }
            fn next_dynamic(&mut self) -> Option<micrograd_codegen::DynamicInstr> {
                self.seen += 1;
                if self.seen == self.after {
                    self.token.cancel();
                }
                self.inner.next_dynamic()
            }
            fn remaining(&self) -> Option<usize> {
                self.inner.remaining()
            }
        }

        let trace = trace_for(|_| {});
        assert!(trace.dynamics().len() > Simulator::CANCEL_CHECK_INTERVAL);
        let token = CancelToken::never();
        let mut sim = Simulator::new(CoreConfig::small());
        let expected = sim.run(&trace);
        let result = sim.run_source_cancellable(
            &mut CancelAfter {
                inner: trace.source(),
                token: &token,
                after: 10,
                seen: 0,
            },
            &token,
        );
        assert_eq!(result, Err(Cancelled));
        // The abandoned run must not poison the next one.
        assert_eq!(sim.run(&trace), expected);
    }

    #[test]
    fn reused_simulator_matches_a_fresh_one() {
        // Run state is reset, not reallocated, between runs: a simulator
        // that has already executed an unrelated workload must produce
        // bit-identical statistics to a freshly constructed one.
        let polluter = trace_for(|input| {
            input.mem_footprint_kb = 4096;
            input.branch_randomness = 1.0;
        });
        let trace = trace_for(|_| {});
        for config in [CoreConfig::small(), CoreConfig::large()] {
            let mut fresh = Simulator::new(config.clone());
            let expected = fresh.run(&trace);
            let mut reused = Simulator::new(config);
            let _ = reused.run(&polluter);
            assert_eq!(reused.run(&trace), expected);
            assert_eq!(reused.run(&trace), expected, "second reuse diverged");
        }
    }

    #[test]
    fn addressless_memory_ops_do_not_touch_the_hierarchy() {
        // A memory op whose dynamic instance carries no effective address
        // must be counted (it occupies the LSQ and a memory unit) without
        // performing a hierarchy access — a fabricated address 0 would
        // alias line 0 / set 0 and pollute the L1D statistics.
        use micrograd_codegen::DynamicInstr;
        use micrograd_isa::{MemAccess, Reg};

        let mem = MemAccess {
            stream: 0,
            base: 0x2000_0000,
            stride: 64,
            footprint: 4096,
            offset: 0,
        };
        let mut load = micrograd_isa::Instruction::load(Opcode::Ld, Reg::x(6), Reg::x(10), mem);
        load.set_address(0x40_0000);
        let mut store = micrograd_isa::Instruction::store(Opcode::Sd, Reg::x(6), Reg::x(10), mem);
        store.set_address(0x40_0004);
        let statics = vec![load, store];
        let dynamic = |static_index: u32, mem_addr: Option<u64>| DynamicInstr {
            static_index,
            pc: 0x40_0000 + u64::from(static_index) * 4,
            mem_addr,
            taken: None,
        };

        // One addressed load + one addressed store, then a run of
        // addressless ones.
        let dynamics = vec![
            dynamic(0, Some(0x2000_0000)),
            dynamic(1, Some(0x2000_0040)),
            dynamic(0, None),
            dynamic(1, None),
            dynamic(0, None),
        ];
        let stats = Simulator::new(CoreConfig::small()).run(&Trace::new(statics, dynamics));

        assert_eq!(stats.instructions, 5);
        assert_eq!(stats.activity.loads, 3);
        assert_eq!(stats.activity.stores, 2);
        assert_eq!(stats.activity.lsq_ops, 5);
        // Only the two addressed ops reached the L1D; the addressless ones
        // must not appear as (fake) address-0 accesses.
        assert_eq!(stats.hierarchy.l1d.accesses, 2);
    }

    #[test]
    fn unit_table_matches_a_first_earliest_free_scan() {
        // The sorted rows must hand out the same earliest free cycles as
        // the per-unit scan they replaced, for every kind and width.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let mut config = CoreConfig::large();
        (
            config.alu_units,
            config.complex_units,
            config.fp_units,
            config.mem_units,
        ) = (7, 1, 0, 3);
        let mut table = UnitTable::new(&config);
        let mut scan: Vec<Vec<u64>> = table.count.iter().map(|&count| vec![0; count]).collect();
        for _ in 0..20_000 {
            let kind = rng.gen_range(0..4);
            let units = &mut scan[kind];
            let mut idx = 0;
            for (i, &free) in units.iter().enumerate() {
                if free < units[idx] {
                    idx = i;
                }
            }
            assert_eq!(table.earliest(kind), units[idx]);
            let until = units[idx] + rng.gen_range(0..40);
            units[idx] = until;
            table.occupy(kind, until);
        }
    }

    #[test]
    fn zero_capacity_windows_impose_no_limit() {
        // A zero-capacity ROB, RS or LSQ means "no limit": the same run as
        // windows too deep to ever fill.
        let trace = trace_for(|_| {});
        for base in [CoreConfig::small(), CoreConfig::large()] {
            let deep = TRACE_LEN as u32 + 1;
            let mut zero = base.clone();
            (zero.rob_entries, zero.rs_entries, zero.lsq_entries) = (0, 0, 0);
            let mut unlimited = base.clone();
            (
                unlimited.rob_entries,
                unlimited.rs_entries,
                unlimited.lsq_entries,
            ) = (deep, deep, deep);
            let stats = Simulator::new(zero).run(&trace);
            assert_eq!(stats, Simulator::new(unlimited).run(&trace));
            assert_ne!(stats, Simulator::new(base).run(&trace));
        }
    }

    #[test]
    fn ipc_is_positive_and_bounded_by_width() {
        let trace = trace_for(|_| {});
        for config in [CoreConfig::small(), CoreConfig::large()] {
            let width = config.frontend_width as f64;
            let stats = Simulator::new(config).run(&trace);
            assert_eq!(stats.instructions, TRACE_LEN as u64);
            assert!(stats.ipc() > 0.05, "ipc {}", stats.ipc());
            assert!(
                stats.ipc() <= width,
                "ipc {} exceeds width {width}",
                stats.ipc()
            );
        }
    }

    #[test]
    fn large_core_is_at_least_as_fast_as_small_core() {
        let trace = trace_for(|_| {});
        let small = Simulator::new(CoreConfig::small()).run(&trace);
        let large = Simulator::new(CoreConfig::large()).run(&trace);
        assert!(
            large.ipc() >= small.ipc() * 0.95,
            "large {} vs small {}",
            large.ipc(),
            small.ipc()
        );
    }

    #[test]
    fn dependency_distance_increases_ipc() {
        let serial = trace_for(|input| {
            input.reg_dependency_distance = 1;
        });
        let parallel = trace_for(|input| {
            input.reg_dependency_distance = 10;
        });
        let mut sim = Simulator::new(CoreConfig::large());
        let ipc_serial = sim.run(&serial).ipc();
        let ipc_parallel = sim.run(&parallel).ipc();
        assert!(
            ipc_parallel > ipc_serial * 1.2,
            "expected ILP to raise IPC: serial {ipc_serial}, parallel {ipc_parallel}"
        );
    }

    #[test]
    fn larger_footprint_lowers_data_hit_rate_and_ipc() {
        let small_fp = trace_for(|input| {
            input.mem_footprint_kb = 8;
        });
        let huge_fp = trace_for(|input| {
            input.mem_footprint_kb = 8 * 1024; // 8 MiB, far beyond the L2
            input.mem_stride = 64;
        });
        let mut sim = Simulator::new(CoreConfig::small());
        let near = sim.run(&small_fp);
        let far = sim.run(&huge_fp);
        assert!(
            far.l1d_hit_rate() < near.l1d_hit_rate() - 0.1,
            "hit rates: near {} far {}",
            near.l1d_hit_rate(),
            far.l1d_hit_rate()
        );
        assert!(far.ipc() < near.ipc());
    }

    #[test]
    fn branch_randomness_raises_mispredict_rate_and_lowers_ipc() {
        let predictable = trace_for(|input| {
            input.branch_randomness = 0.0;
        });
        let random = trace_for(|input| {
            input.branch_randomness = 1.0;
        });
        let mut sim = Simulator::new(CoreConfig::large());
        let p = sim.run(&predictable);
        let r = sim.run(&random);
        assert!(
            p.branch_mispredict_rate() < 0.05,
            "{}",
            p.branch_mispredict_rate()
        );
        assert!(
            r.branch_mispredict_rate() > 0.2,
            "{}",
            r.branch_mispredict_rate()
        );
        assert!(r.ipc() < p.ipc());
    }

    #[test]
    fn class_fractions_match_the_trace() {
        let trace = trace_for(|_| {});
        let stats = Simulator::new(CoreConfig::small()).run(&trace);
        let expected = trace.class_distribution();
        for (class, frac) in expected {
            assert!(
                (stats.class_fraction(class) - frac).abs() < 1e-9,
                "{class:?} fraction mismatch"
            );
        }
    }

    #[test]
    fn float_heavy_workload_stresses_fp_units() {
        let fp_heavy = trace_for(|input| {
            for w in input.instr_weights.values_mut() {
                *w = 0.0;
            }
            input.set_weight(Opcode::FmulD, 8.0);
            input.set_weight(Opcode::Add, 2.0);
        });
        let int_heavy = trace_for(|input| {
            for w in input.instr_weights.values_mut() {
                *w = 0.0;
            }
            input.set_weight(Opcode::Add, 10.0);
        });
        let mut sim = Simulator::new(CoreConfig::small());
        let fp = sim.run(&fp_heavy);
        let int = sim.run(&int_heavy);
        assert!(fp.activity.fp_ops > int.activity.fp_ops);
        assert!(
            fp.ipc() < int.ipc(),
            "fp-heavy {} should be slower than int-heavy {} on 2 FP units",
            fp.ipc(),
            int.ipc()
        );
        assert!(fp.activity.weighted_exec_energy > int.activity.weighted_exec_energy);
    }

    #[test]
    fn activity_counts_are_consistent_with_instruction_counts() {
        let trace = trace_for(|_| {});
        for config in [CoreConfig::small(), CoreConfig::large()] {
            let stats = Simulator::new(config).run(&trace);
            let a = &stats.activity;
            assert_eq!(a.fetched, stats.instructions);
            assert_eq!(a.rob_writes, stats.instructions);
            // Every instruction is counted in exactly one per-kind counter.
            assert_eq!(
                a.int_alu_ops + a.int_complex_ops + a.fp_ops + a.branches + a.loads + a.stores,
                stats.instructions
            );
            assert_eq!(a.lsq_ops, a.loads + a.stores);
            assert!(a.regfile_reads > 0);
            assert!(a.regfile_writes > 0);
            assert!(a.weighted_exec_energy > 0.0);
        }
    }

    #[test]
    fn narrow_frontend_caps_throughput() {
        // A fully parallel integer workload should be limited by the
        // front-end width on the small core (3) vs the large core (8).
        let trace = trace_for(|input| {
            for w in input.instr_weights.values_mut() {
                *w = 0.0;
            }
            input.set_weight(Opcode::Add, 1.0);
            input.reg_dependency_distance = 10;
            input.mem_footprint_kb = 4;
        });
        let small = Simulator::new(CoreConfig::small()).run(&trace);
        let large = Simulator::new(CoreConfig::large()).run(&trace);
        assert!(small.ipc() <= 3.0 + 1e-9);
        assert!(large.ipc() > small.ipc());
    }
}
