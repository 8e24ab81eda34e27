//! End-to-end scan of the rule-violating fixture workspace under
//! `fixtures/ws/`: one deliberate violation per rule, a waived variant, and
//! a dead waiver. The
//! fixture tree is excluded from real workspace scans (`fixtures` is in the
//! linter's excluded-dirs list), so these violations never gate CI — they
//! exist to pin the scanner's exact output.

use pnet_lint::rules::{Finding, Suppression};
use pnet_lint::scan;
use std::path::Path;

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn scan_fixtures() -> pnet_lint::ScanReport {
    scan(&fixture_root()).expect("fixture scan must succeed")
}

/// 1-based column of `needle` on 1-based `line` of the fixture file.
fn col_of(rel: &str, line: u32, needle: &str) -> u32 {
    let src = std::fs::read_to_string(fixture_root().join(rel)).expect("fixture file readable");
    let l = src.lines().nth(line as usize - 1).expect("line exists");
    l.find(needle).expect("needle on line") as u32 + 1
}

fn brief(f: &Finding) -> (String, &'static str, u32, u32, Option<Suppression>) {
    (f.file.clone(), f.rule, f.line, f.col, f.suppressed)
}

#[test]
fn fixture_scan_reports_exact_rule_ids_and_spans() {
    let report = scan_fixtures();
    assert_eq!(report.files_scanned, 6, "six fixture .rs files");
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    let at = |rel: &str, rule: &'static str, line: u32, needle: &str, sup| {
        (rel.to_string(), rule, line, col_of(rel, line, needle), sup)
    };
    let waived = Some(Suppression::Waiver);
    let f1 = "crates/flowsim/src/f1.rs";
    let c1 = "crates/htsim/src/lib.rs";
    let u1 = "crates/htsim/src/units.rs";
    let d2 = "crates/routing/src/d2.rs";
    let expected = vec![
        // flowsim/f1: partial_cmp-based float ordering, active then waived.
        at(f1, "F1", 5, "partial_cmp", None),
        at(f1, "F1", 12, "partial_cmp", waived),
        // flowsim: the dead waiver.
        ("crates/flowsim/src/lib.rs".to_string(), "W1", 3, 1, None),
        // htsim: active unwrap, then `unreachable!` bare (active) and with a
        // non-invariant message (waived). The `expect("invariant: ...")` on
        // line 8 and the `unreachable!("invariant: ...")` on line 30 are
        // sanctioned.
        at(c1, "C1", 4, "unwrap", None),
        at(c1, "C1", 14, "unreachable", None),
        at(c1, "C1", 22, "unreachable", waived),
        // htsim/units: inline /1e6 conversion and its waived twin. (`n * 1000`
        // on line 4 names no unit: clean.)
        at(u1, "U1", 8, "1e6", None),
        at(u1, "U1", 13, "1e6", waived),
        // routing/d2: `sync::atomic`, `thread::scope` and `thread::Builder`
        // in library code — active then waived, each anchored at the token
        // after the `::`. (The same three in the `#[cfg(test)]` module are
        // clean.)
        at(d2, "D2", 5, "atomic", None),
        at(d2, "D2", 7, "atomic", waived),
        at(d2, "D2", 10, "scope", None),
        at(d2, "D2", 15, "scope", waived),
        at(d2, "D2", 19, "Builder", None),
        at(d2, "D2", 24, "Builder", waived),
        // routing: active wall-clock read.
        at("crates/routing/src/lib.rs", "D2", 3, "Instant", None),
    ];
    assert_eq!(got, expected);
}

#[test]
fn fixture_scan_fails_the_check_gate() {
    let report = scan_fixtures();
    let active: Vec<_> = report.active().map(|f| f.rule).collect();
    // Every enforceable rule trips at least once, and the dead waiver is an
    // active finding too.
    for rule in ["D2", "C1", "U1", "F1", "W1"] {
        assert!(
            active.contains(&rule),
            "rule {rule} missing from {active:?}"
        );
    }
    assert_eq!(active.len(), 9);
}

#[test]
fn fixture_suppressions_carry_their_mechanism() {
    let report = scan_fixtures();
    let suppressed: Vec<_> = report
        .findings
        .iter()
        .filter_map(|f| Some((f.rule, f.suppressed?)))
        .collect();
    assert_eq!(
        suppressed,
        vec![
            ("F1", Suppression::Waiver),
            ("C1", Suppression::Waiver),
            ("U1", Suppression::Waiver),
            ("D2", Suppression::Waiver),
            ("D2", Suppression::Waiver),
            ("D2", Suppression::Waiver),
        ]
    );
}
