//! `micrograd-lint`: repo-specific static analysis for the MicroGrad
//! workspace.
//!
//! The determinism and resilience claims this repo makes (bit-identical
//! cloning, a reactor thread that survives arbitrary client behavior, an
//! allocation-free simulator retire loop, Acquire/Release discipline in
//! the memo table) rest on invariants that ordinary tests
//! exercise one instance at a time.  This crate checks the whole class
//! statically and runs in CI as a hard gate:
//!
//! ```text
//! cargo run -p micrograd-lint -- check            # whole workspace
//! cargo run -p micrograd-lint -- check --json     # machine-readable
//! cargo run -p micrograd-lint -- check FILE...    # force all rules on files
//! cargo run -p micrograd-lint -- self-test        # fixtures under tests/fixtures
//! ```
//!
//! It is std-only by design — a lightweight Rust lexer plus brace-tree
//! scanning, no `syn`, no proc-macros — because the offline build
//! vendored exactly what the product needs and a linter should not move
//! that bar.  See `docs/static-analysis.md` for the rule catalogue,
//! ordering-policy table, and the pragma grammar (suppressions require a
//! reason; reason-less pragmas are themselves findings).

pub mod diagnostics;
pub mod lexer;
pub mod rules;
pub mod source;

pub use diagnostics::{render_json, Finding};
pub use source::SourceFile;

use std::path::{Path, PathBuf};

/// Directory names never scanned (third-party stand-ins, build output,
/// the lint crate's own deliberately-bad fixtures).
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// Checks one file's source text.
///
/// `rel_path` selects which rules run via [`rules::Rule::applies`]; with
/// `forced` every rule runs regardless of path (fixture / explicit-file
/// mode).  Pragma suppression and pragma-syntax validation are applied
/// either way.
#[must_use]
pub fn check_source(rel_path: &str, text: &str, forced: bool) -> Vec<Finding> {
    let src = SourceFile::parse(rel_path, text);
    let mut findings = Vec::new();
    for rule in rules::all_rules() {
        if forced || rule.applies(rel_path) {
            rule.check(&src, forced, &mut findings);
        }
    }
    findings.retain(|f| !src.allowed(f.rule, f.line));
    // Malformed pragmas (missing reason, bad syntax) are findings in their
    // own right and cannot be suppressed.
    for (line, message) in &src.bad_pragmas {
        findings.push(Finding {
            rule: "lint-pragma",
            file: rel_path.to_owned(),
            line: *line,
            message: message.clone(),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Checks every first-party `.rs` file under `root`, returning sorted
/// findings.
///
/// # Errors
///
/// Propagates filesystem errors from the directory walk or file reads.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = rel_path(root, &path);
        findings.extend(check_source(&rel, &text, false));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// The workspace-relative path with `/` separators.
#[must_use]
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Result of checking one committed fixture in self-test mode.
#[derive(Debug)]
pub struct FixtureOutcome {
    /// Fixture file name.
    pub name: String,
    /// The rule the fixture exercises (derived from its file name).
    pub rule: String,
    /// Whether the fixture behaved as its `good_` / `bad_` prefix demands.
    pub passed: bool,
    /// Human-readable detail when it did not.
    pub detail: String,
}

/// Runs the committed good/bad fixtures under `fixtures_dir`.
///
/// `bad_<rule>.rs` must produce at least one finding of `<rule>` (with
/// `_` mapped to `-`); `good_<rule>.rs` must produce none.  A `__<tag>`
/// suffix before `.rs` is ignored, so several fixture pairs can exercise
/// the same rule (`bad_atomic_ordering__obs.rs` checks `atomic-ordering`).
/// All rules run forced, so fixtures exercise rules regardless of their
/// workspace path scoping.
///
/// # Errors
///
/// Propagates filesystem errors reading the fixture directory.
pub fn run_fixtures(fixtures_dir: &Path) -> std::io::Result<Vec<FixtureOutcome>> {
    let mut outcomes = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(fixtures_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let stem = name.trim_end_matches(".rs");
        let (expect_findings, rule_part) = if let Some(rest) = stem.strip_prefix("bad_") {
            (true, rest)
        } else if let Some(rest) = stem.strip_prefix("good_") {
            (false, rest)
        } else {
            continue;
        };
        let rule_part = rule_part.split("__").next().unwrap_or(rule_part);
        let rule = rule_part.replace('_', "-");
        let text = std::fs::read_to_string(&path)?;
        let findings = check_source(&format!("fixtures/{name}"), &text, true);
        let hits: Vec<&Finding> = findings.iter().filter(|f| f.rule == rule).collect();
        let (passed, detail) = if expect_findings {
            match hits.first() {
                Some(first) => (true, first.render()),
                None => (false, format!("expected a `{rule}` finding, got none")),
            }
        } else if hits.is_empty() {
            (true, String::new())
        } else {
            (
                false,
                format!(
                    "expected no `{rule}` findings, got {}: {}",
                    hits.len(),
                    hits[0].render()
                ),
            )
        };
        outcomes.push(FixtureOutcome {
            name,
            rule,
            passed,
            detail,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_with_reason_suppresses_and_without_reason_is_a_finding() {
        let bad = "fn f(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n";
        let findings = check_source("crates/service/src/x.rs", bad, false);
        assert!(findings.iter().any(|f| f.rule == "no-panic-paths"));

        let allowed = "fn f(v: &[u8]) -> u8 {\n    // lint:allow(no-panic-paths): caller guarantees non-empty\n    v.first().copied().unwrap()\n}\n";
        let findings = check_source("crates/service/src/x.rs", allowed, false);
        assert!(findings.is_empty(), "{findings:?}");

        let reasonless = "fn f(v: &[u8]) -> u8 {\n    // lint:allow(no-panic-paths)\n    v.first().copied().unwrap()\n}\n";
        let findings = check_source("crates/service/src/x.rs", reasonless, false);
        assert!(findings.iter().any(|f| f.rule == "lint-pragma"));
        assert!(
            findings.iter().any(|f| f.rule == "no-panic-paths"),
            "a reason-less pragma must not suppress"
        );
    }

    #[test]
    fn rules_scope_by_path() {
        let text = "fn f() { x.unwrap(); }\n";
        assert!(check_source("crates/sim/src/x.rs", text, false).is_empty());
        assert!(!check_source("crates/service/src/x.rs", text, false).is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_panic_rules() {
        let text = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(check_source("crates/service/src/x.rs", text, false).is_empty());
    }
}
