//! `hot-loop-alloc`: marker-delimited regions of the evaluation hot path
//! (the simulator, and the trace sources whose `drive` loop runs its
//! per-instruction body) must not allocate.
//!
//! The dynamic complement (`crates/sim/tests/alloc_free.rs`) proves the
//! fused loop performs zero heap operations under a counting global
//! allocator; this rule keeps the property reviewable at the line level.
//! Regions are delimited by `lint:hot-loop-start` / `lint:hot-loop-end`
//! comment markers; inside one, the allocating idioms below are denied:
//!
//! * `.clone()`, `.to_string()`, `.to_owned()`, `.to_vec()`, `.collect()`
//! * `format!` / `vec!`
//! * `Vec::new`, `Box::new`, `String::new/from`, `VecDeque`/`HashMap`/
//!   `HashSet`/`BTreeMap`/`BTreeSet` constructors, `with_capacity`

use super::{ident, is_method_call, Rule};
use crate::diagnostics::Finding;
use crate::source::SourceFile;

/// Method calls that allocate.
const ALLOC_METHODS: [&str; 5] = ["clone", "to_string", "to_owned", "to_vec", "collect"];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Container types whose associated constructors allocate (lazily for
/// `Vec::new`, but capacity growth inside a hot loop is exactly the bug
/// the marker exists to catch).
const ALLOC_TYPES: [&str; 8] = [
    "Vec", "Box", "String", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
];

/// Associated functions on [`ALLOC_TYPES`] that are denied.
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

pub struct HotLoopAlloc;

impl Rule for HotLoopAlloc {
    fn name(&self) -> &'static str {
        "hot-loop-alloc"
    }

    fn applies(&self, rel_path: &str) -> bool {
        rel_path.starts_with("crates/sim/") || rel_path == "crates/codegen/src/source.rs"
    }

    fn check(&self, src: &SourceFile, _forced: bool, out: &mut Vec<Finding>) {
        for line in &src.hot_unmatched {
            out.push(Finding {
                rule: "hot-loop-alloc",
                file: src.rel_path.clone(),
                line: *line,
                message: "unmatched hot-loop marker; every `lint:hot-loop-start` needs a \
                          matching `lint:hot-loop-end`"
                    .to_owned(),
            });
        }
        if src.hot_regions.is_empty() {
            return;
        }
        let in_region = |line: u32| {
            src.hot_regions
                .iter()
                .any(|(start, end)| (*start..=*end).contains(&line))
        };
        let code = &src.code;
        for (i, token) in code.iter().enumerate() {
            let Some(name) = ident(Some(token)) else {
                continue;
            };
            if !in_region(token.line) {
                continue;
            }
            let mut report = |what: &str| {
                out.push(Finding {
                    rule: "hot-loop-alloc",
                    file: src.rel_path.clone(),
                    line: token.line,
                    message: format!(
                        "{what} allocates inside a hot-loop region; hoist it out of the \
                         loop or restructure"
                    ),
                });
            };
            if ALLOC_METHODS.contains(&name) && is_method_call(code, i, name) {
                report(&format!("`.{name}()`"));
            } else if ALLOC_MACROS.contains(&name) && crate::source::is_punct(code.get(i + 1), '!')
            {
                report(&format!("`{name}!`"));
            } else if ALLOC_TYPES.contains(&name)
                && crate::source::is_punct(code.get(i + 1), ':')
                && crate::source::is_punct(code.get(i + 2), ':')
                && ident(code.get(i + 3)).is_some_and(|f| ALLOC_CTORS.contains(&f))
            {
                report(&format!(
                    "`{name}::{}`",
                    ident(code.get(i + 3)).unwrap_or_default()
                ));
            }
        }
    }
}
