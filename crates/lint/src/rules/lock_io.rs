//! `lock-across-io`: no lock guard may live across file or socket I/O in
//! service code.
//!
//! This is the PR-5 review-hardening bug class: a store write performed
//! while holding the scheduler mutex serializes every connection behind
//! one disk flush.  The rule tracks `let`-bound guards (statements whose
//! initializer calls `.lock(..)` or the crate's `lock_or_recover`
//! helper), scopes them to their enclosing block or an explicit
//! `drop(guard)`, and flags I/O markers — filesystem/socket calls and the
//! durable store's own seam methods — while any guard is live.
//!
//! Lexical limits, by design: guards bound by `if let`/`while let`
//! conditions and temporary guards inside a single expression are not
//! tracked.  The service crate uses neither shape for locks; new code
//! should not either.

use super::{ident, is_method_call, Rule};
use crate::diagnostics::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Method names that perform file/socket I/O (or block the thread).
const IO_METHODS: [&str; 18] = [
    "write_all",
    "write_fmt",
    "flush",
    "read_to_string",
    "read_to_end",
    "read_exact",
    "read_line",
    "sync_all",
    "sync_data",
    "accept",
    "connect",
    // The durable store's seam methods are disk I/O by contract.
    "load_report",
    "save_report",
    "load_cache",
    "save_cache",
    "append_cache",
    "report_count",
    "write_atomically",
];

/// Free functions / types whose mention means I/O is happening.
const IO_IDENTS: [&str; 8] = [
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "sleep",
    "rename",
    "read_dir",
];

/// Method names that acquire a lock inside a `let` initializer.  The
/// service crate holds no `RwLock`, so `.read()`/`.write()` guards are
/// deliberately not tracked (those names mean socket I/O here).
const LOCK_CALLS: [&str; 2] = ["lock", "lock_or_recover"];

pub struct LockAcrossIo;

#[derive(Debug)]
struct Guard {
    depth: u32,
    name: Option<String>,
    line: u32,
}

#[derive(Debug)]
struct PendingLet {
    depth: u32,
    name: Option<String>,
    line: u32,
    takes_lock: bool,
}

impl Rule for LockAcrossIo {
    fn name(&self) -> &'static str {
        "lock-across-io"
    }

    fn applies(&self, rel_path: &str) -> bool {
        rel_path.starts_with("crates/service/src/")
    }

    #[allow(clippy::too_many_lines)]
    fn check(&self, src: &SourceFile, _forced: bool, out: &mut Vec<Finding>) {
        let code = &src.code;
        let mut depth = 0u32;
        let mut guards: Vec<Guard> = Vec::new();
        let mut pending: Vec<PendingLet> = Vec::new();
        for (i, token) in code.iter().enumerate() {
            match &token.kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    guards.retain(|g| g.depth < depth);
                    depth = depth.saturating_sub(1);
                }
                TokenKind::Punct(';') if pending.last().is_some_and(|p| p.depth == depth) => {
                    let p = pending.pop().unwrap_or(PendingLet {
                        depth,
                        name: None,
                        line: token.line,
                        takes_lock: false,
                    });
                    if p.takes_lock {
                        guards.push(Guard {
                            depth: p.depth,
                            name: p.name,
                            line: p.line,
                        });
                    }
                }
                TokenKind::Ident(name) if name == "let" => {
                    // `if let` / `while let` bind into a condition, not a
                    // `;`-terminated statement; skip those (see module
                    // docs).
                    let prev = i.checked_sub(1).and_then(|j| ident(code.get(j)));
                    if matches!(prev, Some("if" | "while")) {
                        continue;
                    }
                    let mut j = i + 1;
                    while ident(code.get(j)) == Some("mut") {
                        j += 1;
                    }
                    pending.push(PendingLet {
                        depth,
                        name: ident(code.get(j)).map(str::to_owned),
                        line: token.line,
                        takes_lock: false,
                    });
                }
                TokenKind::Ident(name)
                    if LOCK_CALLS.contains(&name.as_str()) && is_method_call(code, i, name) =>
                {
                    if let Some(p) = pending.last_mut() {
                        if p.depth == depth {
                            p.takes_lock = true;
                        }
                    }
                }
                // The crate's free-function lock helper.
                TokenKind::Ident(name)
                    if name == "lock_or_recover"
                        && crate::source::is_punct(code.get(i + 1), '(') =>
                {
                    if let Some(p) = pending.last_mut() {
                        if p.depth == depth {
                            p.takes_lock = true;
                        }
                    }
                }
                TokenKind::Ident(name)
                    if name == "drop" && crate::source::is_punct(code.get(i + 1), '(') =>
                {
                    if let Some(dropped) = ident(code.get(i + 2)) {
                        guards.retain(|g| g.name.as_deref() != Some(dropped));
                    }
                }
                TokenKind::Ident(name) => {
                    if guards.is_empty() || src.in_test(token.line) {
                        continue;
                    }
                    let is_io = (IO_METHODS.contains(&name.as_str())
                        && is_method_call(code, i, name))
                        || IO_IDENTS.contains(&name.as_str());
                    if is_io {
                        let held: Vec<String> = guards
                            .iter()
                            .map(|g| {
                                format!(
                                    "`{}` (line {})",
                                    g.name.as_deref().unwrap_or("<guard>"),
                                    g.line
                                )
                            })
                            .collect();
                        out.push(Finding {
                            rule: "lock-across-io",
                            file: src.rel_path.clone(),
                            line: token.line,
                            message: format!(
                                "I/O (`{name}`) while lock guard {} is live; do the I/O \
                                 outside the critical section",
                                held.join(", ")
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }
}
