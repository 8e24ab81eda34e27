//! `pnet-tidy` — repo-specific determinism & correctness lints.
//!
//! A dependency-free, two-phase pass over the workspace's `.rs` files:
//!
//! * **Lexical phase** (per file): [`lexer`] turns the file into tokens +
//!   comments and [`rules`] runs the token-level catalogue (D1/D2/D3/C1/C2).
//! * **Semantic phase** (whole workspace): [`ast`] parses every file's
//!   tokens into a lightweight AST, [`sem`] builds a symbol table and an
//!   intra-workspace call graph, and runs the semantic catalogue
//!   (P1/M1/U1/F1, plus E1 for files the parser cannot structure).
//!
//! This module drives both phases, applies inline waivers globally (a P1
//! waiver placed on a panic site suppresses every finding propagated from
//! it, even in other files) and the checked-in allowlist, and reports what
//! is left. See DESIGN.md §"Static analysis & determinism contract" for the
//! catalogue and the rationale.

pub mod allowlist;
pub mod ast;
pub mod baseline;
mod effects;
pub mod lexer;
pub mod rules;
pub mod sem;

use allowlist::{parse_allowlist, parse_waivers, AllowEntry, Waiver};
use rules::{check_file, test_mask, FileCtx, Finding, Suppression};
use sem::SemFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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
    /// waiver or allowlist entry, including W1 (malformed waiver) and A1
    /// (stale allowlist entry) meta-findings.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }
}

/// Lint a set of `(relative path, source)` files as one workspace: lexical
/// rules per file, semantic rules across all files, then global waiver
/// application. A waiver on a code line suppresses matching findings on that
/// line; a waiver on a comment-only line suppresses matching findings on the
/// next line; a P1 waiver additionally suppresses P1 findings *propagated
/// from* its target line anywhere in the workspace. Waivers that end up
/// suppressing nothing are themselves reported (W1) — dead waivers rot just
/// like stale allowlist entries.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let asts: Vec<ast::Ast> = lexed.iter().map(|l| ast::parse(&l.tokens)).collect();
    let masks: Vec<Vec<bool>> = lexed.iter().map(|l| test_mask(&l.tokens)).collect();
    let lines: Vec<Vec<&str>> = files.iter().map(|(_, src)| src.lines().collect()).collect();

    let mut findings: Vec<Finding> = Vec::new();
    // (file index, waiver, 1-based target line)
    let mut waivers: Vec<(usize, Waiver, u32)> = Vec::new();

    let sem_files: Vec<SemFile> = files
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| SemFile {
            rel_path: rel,
            tokens: &lexed[i].tokens,
            in_test: &masks[i],
            lines: &lines[i],
            ast: &asts[i],
        })
        .collect();

    for (i, (rel, _)) in files.iter().enumerate() {
        let ctx = FileCtx {
            rel_path: rel,
            tokens: &lexed[i].tokens,
            in_test: &masks[i],
            lines: &lines[i],
        };
        findings.extend(check_file(&ctx));
        findings.extend(sem::parse_error_findings(&sem_files[i]));
        let (ws, malformed) = parse_waivers(&lexed[i].comments, rel, &lines[i]);
        findings.extend(malformed);
        for w in ws {
            // Comment-only line => the waiver targets the line below it.
            let own_line_is_code = lines[i].get(w.line as usize - 1).is_some_and(|l| {
                let t = l.trim_start();
                !t.is_empty() && !t.starts_with("//") && !t.starts_with("/*")
            });
            let target = if own_line_is_code { w.line } else { w.line + 1 };
            waivers.push((i, w, target));
        }
    }

    findings.extend(sem::check_workspace(&sem_files));

    // Global waiver pass: line match in the waiver's own file, or origin
    // match anywhere (P1 findings carry the panic site they propagate from).
    for (i, w, target) in &waivers {
        let wfile = files[*i].0.as_str();
        let mut used = false;
        for f in findings.iter_mut() {
            if f.suppressed.is_some() || !w.rules.iter().any(|r| r == f.rule) {
                continue;
            }
            let line_hit = f.file == wfile && f.line == *target;
            let origin_hit = f
                .origin
                .as_ref()
                .is_some_and(|(of, ol)| of == wfile && ol == target);
            if line_hit || origin_hit {
                f.suppressed = Some(Suppression::Waiver);
                used = true;
            }
        }
        if !used {
            findings.push(Finding {
                rule: "W1",
                file: wfile.to_string(),
                line: w.line,
                col: 1,
                message: format!(
                    "waiver for {} suppresses nothing on line {target}; remove it",
                    w.rules.join(", ")
                ),
                snippet: lines[*i]
                    .get(w.line as usize - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
                suppressed: None,
                origin: None,
            });
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings
}

/// Lint a single file's contents (unit-test convenience wrapper around
/// [`lint_sources`]; semantic rules see a one-file workspace).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_string(), src.to_string())])
}

/// Render every workspace function's inferred effect signature as one
/// S-expression per line (the `pnet-tidy effects` mode and the snapshot-test
/// surface for the inference itself).
pub fn effects_dump(files: &[(String, String)]) -> String {
    let lexed: Vec<lexer::Lexed> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let asts: Vec<ast::Ast> = lexed.iter().map(|l| ast::parse(&l.tokens)).collect();
    let masks: Vec<Vec<bool>> = lexed.iter().map(|l| test_mask(&l.tokens)).collect();
    let lines: Vec<Vec<&str>> = files.iter().map(|(_, src)| src.lines().collect()).collect();
    let sem_files: Vec<SemFile> = files
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| SemFile {
            rel_path: rel,
            tokens: &lexed[i].tokens,
            in_test: &masks[i],
            lines: &lines[i],
            ast: &asts[i],
        })
        .collect();
    let ws = sem::build_workspace(&sem_files);
    let fx = effects::infer(&ws, &sem_files);
    effects::dump(&ws, &sem_files, &fx)
}

/// [`effects_dump`] over a workspace tree on disk (same file walk as
/// [`scan`]).
pub fn effects_dump_root(root: &Path) -> io::Result<String> {
    let paths = collect_rs_files(root)?;
    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        files.push((rel_str(root, path), fs::read_to_string(path)?));
    }
    Ok(effects_dump(&files))
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

/// Scan a workspace tree and apply the allowlist. A missing allowlist file
/// is treated as empty (fresh checkouts lint clean without one).
pub fn scan(root: &Path, allowlist_path: &Path) -> io::Result<ScanReport> {
    let (entries, mut allow_findings) = match fs::read_to_string(allowlist_path) {
        Ok(src) => parse_allowlist(&src, &rel_str(root, allowlist_path)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (Vec::new(), Vec::new()),
        Err(e) => return Err(e),
    };
    let paths = collect_rs_files(root)?;
    let files_scanned = paths.len();
    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        files.push((rel_str(root, path), fs::read_to_string(path)?));
    }
    let mut findings = lint_sources(&files);
    // Allowlist pass: each entry must suppress at least one live finding,
    // otherwise it is stale and reported under A1.
    let mut used = vec![false; entries.len()];
    for f in findings.iter_mut() {
        if f.suppressed.is_some() {
            continue;
        }
        if let Some(idx) = entries.iter().position(|e| e.matches(f)) {
            f.suppressed = Some(Suppression::Allowlist);
            used[idx] = true;
        }
    }
    for (e, used) in entries.iter().zip(&used) {
        if !used {
            allow_findings.push(stale_entry_finding(e, &rel_str(root, allowlist_path)));
        }
    }
    findings.append(&mut allow_findings);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(ScanReport {
        findings,
        files_scanned,
    })
}

fn stale_entry_finding(e: &AllowEntry, allowlist_rel: &str) -> Finding {
    Finding {
        rule: "A1",
        file: allowlist_rel.to_string(),
        line: e.line,
        col: 1,
        message: format!(
            "stale allowlist entry: rule {} in `{}`{} matches no finding; remove it",
            e.rule,
            e.file,
            if e.contains.is_empty() {
                String::new()
            } else {
                format!(" (contains `{}`)", e.contains)
            }
        ),
        snippet: String::new(),
        suppressed: None,
        origin: None,
    }
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
        let src = "fn f(m: &std::collections::HashMap<u32, u32>) {} // pnet-tidy: allow(D1) -- lookup only, never iterated\n";
        let fs = lint_source("crates/routing/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "D1");
        assert_eq!(fs[0].suppressed, Some(Suppression::Waiver));
    }

    #[test]
    fn waiver_on_line_above_suppresses() {
        let src = "// pnet-tidy: allow(D1) -- lookup only\nuse std::collections::HashMap;\n";
        let fs = lint_source("crates/routing/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].suppressed, Some(Suppression::Waiver));
    }

    #[test]
    fn unused_waiver_is_reported() {
        let src = "// pnet-tidy: allow(D1) -- nothing here\nfn f() {}\n";
        let fs = lint_source("crates/routing/src/x.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "W1");
    }

    #[test]
    fn malformed_waiver_is_reported() {
        let src = "// pnet-tidy: allow(D1)\nuse std::collections::HashMap;\n";
        let fs = lint_source("crates/routing/src/x.rs", src);
        assert!(fs.iter().any(|f| f.rule == "W1"));
        assert!(fs.iter().any(|f| f.rule == "D1" && f.suppressed.is_none()));
    }

    #[test]
    fn waiver_only_covers_named_rules() {
        let src = "fn g(m: &std::collections::BTreeMap<u32, u32>, k: u32) -> u32 {\n    *m.get(&k).unwrap() // pnet-tidy: allow(D1) -- wrong rule\n}\n";
        let fs = lint_source("crates/htsim/src/x.rs", src);
        // The C1 finding stays active; the D1 waiver is unused => W1.
        assert!(fs.iter().any(|f| f.rule == "C1" && f.suppressed.is_none()));
        assert!(fs.iter().any(|f| f.rule == "W1"));
    }

    #[test]
    fn p1_origin_waiver_suppresses_cross_file() {
        // The panic site lives in helper.rs with a P1 waiver; the pub fn in
        // api.rs that transitively reaches it must come out suppressed, and
        // the waiver must count as used (no W1).
        let files = vec![
            (
                "crates/routing/src/helper.rs".to_string(),
                "pub(crate) fn pick(v: &[u32]) -> u32 {\n    // pnet-tidy: allow(C1, P1) -- prototype: callers guarantee non-empty\n    *v.first().unwrap()\n}\n".to_string(),
            ),
            (
                "crates/routing/src/api.rs".to_string(),
                "pub fn best(v: &[u32]) -> u32 { pick(v) }\n".to_string(),
            ),
        ];
        let fs = lint_sources(&files);
        let p1: Vec<_> = fs.iter().filter(|f| f.rule == "P1").collect();
        assert_eq!(p1.len(), 1, "{fs:?}");
        assert_eq!(p1[0].suppressed, Some(Suppression::Waiver));
        assert_eq!(p1[0].file, "crates/routing/src/api.rs");
        assert!(fs.iter().all(|f| f.rule != "W1"), "{fs:?}");
        // The C1 at the site is waived too.
        assert!(fs
            .iter()
            .all(|f| f.rule != "C1" || f.suppressed == Some(Suppression::Waiver)));
    }

    #[test]
    fn parse_error_becomes_e1() {
        let fs = lint_source("crates/routing/src/x.rs", "fn broken( {\n");
        assert!(fs.iter().any(|f| f.rule == "E1"), "{fs:?}");
    }

    #[test]
    fn allowlist_roundtrip_and_stale_detection() {
        let src = r#"
[[allow]]
rule = "D1"
file = "crates/routing/src/x.rs"
contains = "HashMap"
reason = "lookup only"

[[allow]]
rule = "C1"
file = "crates/nowhere/src/y.rs"
reason = "never matches"
"#;
        let (entries, errs) = parse_allowlist(src, "lint-allowlist.toml");
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(entries.len(), 2);
        let f = Finding {
            rule: "D1",
            file: "crates/routing/src/x.rs".to_string(),
            line: 3,
            col: 5,
            message: String::new(),
            snippet: "use std::collections::HashMap;".to_string(),
            suppressed: None,
            origin: None,
        };
        assert!(entries[0].matches(&f));
        assert!(!entries[1].matches(&f));
    }

    #[test]
    fn allowlist_rejects_unknown_rule_and_missing_reason() {
        let src = "[[allow]]\nrule = \"Z9\"\nfile = \"x.rs\"\n";
        let (_, errs) = parse_allowlist(src, "lint-allowlist.toml");
        assert_eq!(errs.len(), 2); // unknown rule + missing reason
        assert!(errs.iter().all(|f| f.rule == "A1"));
    }
}
