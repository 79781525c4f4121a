//! `atomic-ordering`: atomic operations in the lock-free modules obey a
//! per-module ordering policy.
//!
//! The default contract for a policy module is publication-grade: loads
//! whose result is dereferenced or trusted must be `Acquire`, stores that
//! publish data must be `Release`, read-modify-writes that do both must be
//! `AcqRel` (`SeqCst` always passes).  Plain statistics counters are the
//! exception — they carry no happens-before obligation — so each module
//! allowlists its counter fields for `Relaxed`.
//!
//! Detection is lexical: a method call named like an atomic op whose
//! argument list mentions a memory-ordering identifier.  Calls that pass
//! an ordering through a variable are invisible to this rule; the policy
//! modules use literal orderings everywhere, and new code should too.

use super::{args_end, ident, is_method_call, receiver_idents, Rule};
use crate::diagnostics::Finding;
use crate::source::SourceFile;

/// Memory-ordering identifiers recognized in argument lists.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic read-modify-write method names (one ordering argument).
const RMW_OPS: [&str; 9] = [
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
];

/// Atomic compare-exchange method names (success + failure orderings).
const CAS_OPS: [&str; 3] = ["compare_exchange", "compare_exchange_weak", "fetch_update"];

/// Orderings acceptable for the failure side of a compare-exchange.
const CAS_FAILURE_OK: [&str; 3] = ["Acquire", "Relaxed", "SeqCst"];

#[derive(Clone, Copy)]
struct FieldPolicy {
    /// Receiver identifier this policy binds to ("" = module default).
    field: &'static str,
    load: &'static [&'static str],
    store: &'static [&'static str],
    rmw: &'static [&'static str],
}

/// The publication-grade default: Acquire loads, Release stores, AcqRel
/// read-modify-writes.
const PUBLISH: FieldPolicy = FieldPolicy {
    field: "",
    load: &["Acquire", "SeqCst"],
    store: &["Release", "SeqCst"],
    rmw: &["AcqRel", "SeqCst"],
};

/// Statistics counters: no happens-before obligation in any direction.
const fn counter(field: &'static str) -> FieldPolicy {
    FieldPolicy {
        field,
        load: &["Relaxed"],
        store: &["Relaxed"],
        rmw: &["Relaxed"],
    }
}

struct ModulePolicy {
    suffix: &'static str,
    fields: &'static [FieldPolicy],
}

/// The policy table.  Every module scanned by this rule must appear here;
/// fields not listed fall back to [`PUBLISH`].
const POLICIES: [ModulePolicy; 5] = [
    ModulePolicy {
        // Memo table: slot pointers are published via AcqRel swaps/CAS
        // and acquired before dereference; the occupancy and replacement
        // statistics and the insertion mark are plain counters (a mark
        // guards no data; see `MemoTable::mark`).
        suffix: "crates/core/src/memo.rs",
        fields: &[
            counter("occupied"),
            counter("replacements"),
            counter("next_mark"),
        ],
    },
    ModulePolicy {
        // Cancellation token: `cancelled` is a monotonic latch.  Setting
        // it publishes with Release; polling it may be Relaxed because a
        // stale `false` only delays cancellation by one check interval and
        // the token carries no payload to acquire.
        suffix: "crates/sim/src/cancel.rs",
        fields: &[FieldPolicy {
            field: "cancelled",
            load: &["Relaxed", "Acquire"],
            store: &["Release", "SeqCst"],
            rmw: &["AcqRel", "SeqCst"],
        }],
    },
    ModulePolicy {
        // Event-loop reactor: its counters live in the metrics registry, so
        // it owns no statistics atomics; any atomic added here publishes
        // and must use the publication-grade orderings.
        suffix: "crates/service/src/reactor.rs",
        fields: &[],
    },
    ModulePolicy {
        // Metrics registry: counter and gauge cells are plain statistics
        // (both store their payload in a field named `value`); scrapes
        // tolerate torn cross-metric snapshots by design.
        suffix: "crates/obs/src/registry.rs",
        fields: &[counter("value")],
    },
    ModulePolicy {
        // Latency histogram: every cell is a statistics counter.  A scrape
        // may observe `count` ahead of `buckets`; the encoder clamps
        // instead of acquiring.
        suffix: "crates/obs/src/histogram.rs",
        fields: &[
            counter("buckets"),
            counter("count"),
            counter("sum"),
            counter("min"),
            counter("max"),
        ],
    },
];

/// Fixture-mode fields: receivers mentioning `counter` are counters, and
/// `value` mirrors the metric cells of `micrograd_obs::registry` so the
/// obs fixture pair can exercise that policy shape.
const FIXTURE_FIELDS: [FieldPolicy; 2] = [counter("counter"), counter("value")];

pub struct AtomicOrdering;

impl Rule for AtomicOrdering {
    fn name(&self) -> &'static str {
        "atomic-ordering"
    }

    fn applies(&self, rel_path: &str) -> bool {
        POLICIES.iter().any(|p| rel_path.ends_with(p.suffix))
    }

    fn check(&self, src: &SourceFile, forced: bool, out: &mut Vec<Finding>) {
        let fields: &[FieldPolicy] =
            match POLICIES.iter().find(|p| src.rel_path.ends_with(p.suffix)) {
                Some(policy) => policy.fields,
                None if forced => &FIXTURE_FIELDS,
                None => return,
            };
        let code = &src.code;
        for i in 0..code.len() {
            let Some(op) = ident(code.get(i)) else {
                continue;
            };
            let is_atomic_op =
                op == "load" || op == "store" || RMW_OPS.contains(&op) || CAS_OPS.contains(&op);
            if !is_atomic_op || !is_method_call(code, i, op) {
                continue;
            }
            let line = code[i].line;
            if src.in_test(line) {
                continue;
            }
            let close = args_end(code, i + 1);
            let orderings: Vec<&str> = code[i + 1..=close]
                .iter()
                .filter_map(|t| ident(Some(t)))
                .filter(|name| ORDERINGS.contains(name))
                .collect();
            if orderings.is_empty() {
                // Not an atomic call (Vec::swap, serde load, ...), or the
                // ordering is behind a variable and invisible to us.
                continue;
            }
            let receiver = receiver_idents(code, i - 1);
            let policy = fields
                .iter()
                .find(|f| receiver.iter().any(|r| r == f.field))
                .copied()
                .unwrap_or(PUBLISH);
            let receiver_text = {
                let mut parts: Vec<&str> = receiver.iter().map(String::as_str).collect();
                parts.reverse();
                parts.join(".")
            };
            let mut complain = |allowed: &[&str], got: &str, side: &str| {
                out.push(Finding {
                    rule: "atomic-ordering",
                    file: src.rel_path.clone(),
                    line,
                    message: format!(
                        "`{receiver_text}.{op}` uses Ordering::{got}{side}; module policy \
                         allows {allowed:?} here"
                    ),
                });
            };
            if CAS_OPS.contains(&op) {
                if let Some(success) = orderings.first() {
                    if !policy.rmw.contains(success) {
                        complain(policy.rmw, success, " (success ordering)");
                    }
                }
                if let Some(failure) = orderings.get(1) {
                    let relaxed_cas = policy.rmw.contains(&"Relaxed");
                    if !CAS_FAILURE_OK.contains(failure) && !relaxed_cas {
                        complain(&CAS_FAILURE_OK, failure, " (failure ordering)");
                    }
                }
            } else {
                let allowed = match op {
                    "load" => policy.load,
                    "store" => policy.store,
                    _ => policy.rmw,
                };
                for got in &orderings {
                    if !allowed.contains(got) {
                        complain(allowed, got, "");
                    }
                }
            }
        }
    }
}
