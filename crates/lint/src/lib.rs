//! `pnet-tidy` — repo-specific determinism & correctness lints.
//!
//! A dependency-free lexical pass over the workspace's `.rs` files:
//! [`lexer`] turns each file into tokens + comments and [`rules`] runs the
//! token-level catalogue (D2/C1/F1/U1). This module walks the tree, applies
//! the inline [`waiver`]s, and reports what is left.
//! Everything a type checker decides better (hash containers, float `==`,
//! narrowing casts, catch-all arms, unstable sorts, no `unsafe` (`forbid`))
//! is the compiler's and clippy's job: `[workspace.lints]` plus
//! `clippy.toml`. See DESIGN.md §"Static analysis & determinism contract".

pub mod lexer;
pub mod rules;
pub mod waiver;

use rules::{check_file, test_mask, FileCtx, Finding, Suppression};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use waiver::parse_waivers;

/// Directories never scanned (build output, vendored deps, VCS, and the
/// linter's own rule-violating fixtures).
const EXCLUDED_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Everything one scan produced. `findings` contains *all* findings,
/// including suppressed ones (for `list`/`stats`); gate on [`ScanReport::active`].
pub struct ScanReport {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl ScanReport {
    /// Findings that fail the `check` gate: everything not suppressed by a
    /// waiver, including W1 (malformed or dead waiver) meta-findings.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }
}

/// Lint one file's contents: the rules, then the file's inline waivers. A
/// waiver on a code line suppresses matching findings on that line; a waiver
/// on a comment-only line suppresses matching findings on the next line.
/// Waivers that end up suppressing nothing are themselves reported (W1):
/// a dead waiver must go, so the set can only shrink.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mask = test_mask(&lexed.tokens);
    let lines: Vec<&str> = src.lines().collect();
    let ctx = FileCtx {
        rel_path,
        tokens: &lexed.tokens,
        in_test: &mask,
        lines: &lines,
    };
    let mut findings = check_file(&ctx);
    let (waivers, malformed) = parse_waivers(&lexed.comments, rel_path, &lines);
    findings.extend(malformed);
    for w in waivers {
        // Comment-only line => the waiver targets the line below it.
        let own_line_is_code = lines.get(w.line as usize - 1).is_some_and(|l| {
            let t = l.trim_start();
            !t.is_empty() && !t.starts_with("//") && !t.starts_with("/*")
        });
        let target = if own_line_is_code { w.line } else { w.line + 1 };
        let mut used = false;
        for f in findings.iter_mut() {
            if f.suppressed.is_none() && f.line == target && w.rules.iter().any(|r| r == f.rule) {
                f.suppressed = Some(Suppression::Waiver);
                used = true;
            }
        }
        if !used {
            findings.push(Finding {
                rule: "W1",
                file: rel_path.to_string(),
                line: w.line,
                col: 1,
                message: format!(
                    "waiver for {} suppresses nothing on line {target}; remove it",
                    w.rules.join(", ")
                ),
                snippet: ctx.snippet(w.line),
                suppressed: None,
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// Recursively collect `.rs` files under `root`, as sorted root-relative
/// forward-slash paths. Sorted so the scan (and every diagnostic ordering
/// downstream) is deterministic regardless of filesystem enumeration order.
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if path.is_dir() {
                if !EXCLUDED_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint every `.rs` file under `root`.
pub fn scan(root: &Path) -> io::Result<ScanReport> {
    let paths = collect_rs_files(root)?;
    let files_scanned = paths.len();
    let mut findings = Vec::new();
    for path in &paths {
        findings.extend(lint_source(
            &rel_str(root, path),
            &fs::read_to_string(path)?,
        ));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(ScanReport {
        findings,
        files_scanned,
    })
}

/// Walk up from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]` — lets the binary run from any subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_on_same_line_suppresses() {
        let src =
            "fn f(t0: std::time::Instant) {} // pnet-tidy: allow(D2) -- passed in, never read\n";
        let fs = lint_source("crates/routing/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "D2");
        assert_eq!(fs[0].suppressed, Some(Suppression::Waiver));
    }

    #[test]
    fn waiver_on_line_above_suppresses() {
        let src = "// pnet-tidy: allow(D2) -- type only\nuse std::time::Instant;\n";
        let fs = lint_source("crates/routing/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].suppressed, Some(Suppression::Waiver));
    }

    #[test]
    fn unused_waiver_is_reported() {
        let src = "// pnet-tidy: allow(D2) -- nothing here\nfn f() {}\n";
        let fs = lint_source("crates/routing/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "W1");
    }

    #[test]
    fn malformed_waiver_is_reported() {
        let src = "// pnet-tidy: allow(D2)\nuse std::time::Instant;\n";
        let fs = lint_source("crates/routing/src/x.rs", src);
        assert!(fs.iter().any(|f| f.rule == "W1"));
        assert!(fs.iter().any(|f| f.rule == "D2" && f.suppressed.is_none()));
    }

    #[test]
    fn waiver_only_covers_named_rules() {
        let src = "fn g(m: &std::collections::BTreeMap<u32, u32>, k: u32) -> u32 {\n    *m.get(&k).unwrap() // pnet-tidy: allow(D2) -- wrong rule\n}\n";
        let fs = lint_source("crates/htsim/src/x.rs", src);
        // The C1 finding stays active; the D2 waiver is unused => W1.
        assert!(fs.iter().any(|f| f.rule == "C1" && f.suppressed.is_none()));
        assert!(fs.iter().any(|f| f.rule == "W1"));
    }
}
