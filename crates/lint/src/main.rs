//! `pnet-tidy` CLI.
//!
//! Modes:
//! * `check` — human-readable diagnostics for every unsuppressed finding;
//!   exit 1 if any. This is the CI gate and what `tests/tidy.rs` shells to.
//! * `list`  — every finding, suppressed ones included and marked as such.
//! * `stats` — per-rule counts of active / waived findings.
//!
//! Flag: `--root <dir>` (default: walk up from cwd to the `[workspace]`
//! manifest).

use pnet_lint::rules::{rule_summary, Finding, Suppression};
use pnet_lint::{find_workspace_root, scan, ScanReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut mode: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            m if mode.is_none() && !m.starts_with('-') => mode = Some(m.to_string()),
            other => {
                eprintln!("pnet-tidy: unknown argument `{other}`");
                print_usage();
                return ExitCode::from(2);
            }
        }
    }
    let mode = mode.unwrap_or_else(|| "check".to_string());
    if !matches!(mode.as_str(), "check" | "list" | "stats") {
        eprintln!("pnet-tidy: unknown mode `{mode}`");
        print_usage();
        return ExitCode::from(2);
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("pnet-tidy: cannot determine cwd: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "pnet-tidy: no [workspace] Cargo.toml above {}; pass --root",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let report = match scan(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pnet-tidy: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    match mode.as_str() {
        "check" => run_check(&report),
        "list" => {
            for f in &report.findings {
                print_finding(f);
            }
            ExitCode::SUCCESS
        }
        _ => {
            run_stats(&report);
            ExitCode::SUCCESS
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: pnet-tidy [check|list|stats] [--root <dir>]\n\
         \n\
         check    exit 1 on any unwaived finding (default; the CI gate)\n\
         list     all findings, suppressed included\n\
         stats    per-rule active/waived counts"
    );
}

fn print_finding(f: &Finding) {
    let how = match f.suppressed {
        None => "",
        Some(Suppression::Waiver) => " (waived)",
    };
    println!(
        "{}:{}:{}: [{}]{how} {}\n    {}",
        f.file, f.line, f.col, f.rule, f.message, f.snippet
    );
}

fn run_check(report: &ScanReport) -> ExitCode {
    let active: Vec<&Finding> = report.active().collect();
    for f in &active {
        print_finding(f);
    }
    let suppressed = report.findings.len() - active.len();
    if active.is_empty() {
        println!(
            "pnet-tidy: clean — {} files scanned, {} suppressed finding(s)",
            report.files_scanned, suppressed
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "pnet-tidy: {} finding(s) in {} files scanned ({} suppressed)",
            active.len(),
            report.files_scanned,
            suppressed
        );
        ExitCode::FAILURE
    }
}

fn run_stats(report: &ScanReport) {
    // rule -> (active, waived)
    let mut by_rule: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for f in &report.findings {
        let e = by_rule.entry(f.rule).or_default();
        match f.suppressed {
            None => e.0 += 1,
            Some(Suppression::Waiver) => e.1 += 1,
        }
    }
    println!("rule  active  waived  description");
    for (rule, (a, w)) in &by_rule {
        println!("{rule:<5} {a:>6}  {w:>6}  {}", rule_summary(rule));
    }
    println!("files scanned: {}", report.files_scanned);
}
