//! End-to-end scan of the rule-violating fixture workspace under
//! `fixtures/ws/`: one deliberate violation per rule, a waived and an
//! allowlisted variant, a dead waiver, and a stale allowlist entry. The
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
    let root = fixture_root();
    scan(&root, &root.join("lint-allowlist.toml")).expect("fixture scan must succeed")
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
    assert_eq!(report.files_scanned, 14, "fourteen fixture .rs files");
    let got: Vec<_> = report.findings.iter().map(brief).collect();
    let expected = vec![
        // core: wildcard arm over a workspace enum, active then waived.
        (
            "crates/core/src/lib.rs".to_string(),
            "M1",
            12,
            col_of("crates/core/src/lib.rs", 12, "_"),
            None,
        ),
        (
            "crates/core/src/lib.rs".to_string(),
            "M1",
            20,
            col_of("crates/core/src/lib.rs", 20, "_"),
            Some(Suppression::Waiver),
        ),
        // flowsim/f1: partial_cmp-based float ordering, active then waived.
        (
            "crates/flowsim/src/f1.rs".to_string(),
            "F1",
            5,
            col_of("crates/flowsim/src/f1.rs", 5, "partial_cmp"),
            None,
        ),
        (
            "crates/flowsim/src/f1.rs".to_string(),
            "F1",
            12,
            col_of("crates/flowsim/src/f1.rs", 12, "partial_cmp"),
            Some(Suppression::Waiver),
        ),
        // flowsim: active float ==, waived sentinel ==, dead waiver.
        (
            "crates/flowsim/src/lib.rs".to_string(),
            "D3",
            4,
            col_of("crates/flowsim/src/lib.rs", 4, "=="),
            None,
        ),
        (
            "crates/flowsim/src/lib.rs".to_string(),
            "D3",
            9,
            col_of("crates/flowsim/src/lib.rs", 9, "=="),
            Some(Suppression::Waiver),
        ),
        ("crates/flowsim/src/lib.rs".to_string(), "W1", 12, 1, None),
        // flowsim/o1: float fold through `.rev()` over a map_indexed
        // binding — active, waived, allowlisted. (`ordered` is clean.)
        (
            "crates/flowsim/src/o1.rs".to_string(),
            "O1",
            15,
            col_of("crates/flowsim/src/o1.rs", 15, "rev"),
            None,
        ),
        (
            "crates/flowsim/src/o1.rs".to_string(),
            "O1",
            21,
            col_of("crates/flowsim/src/o1.rs", 21, "rev"),
            Some(Suppression::Waiver),
        ),
        (
            "crates/flowsim/src/o1.rs".to_string(),
            "O1",
            26,
            col_of("crates/flowsim/src/o1.rs", 26, "rev"),
            Some(Suppression::Allowlist),
        ),
        // htsim: active unwrap, active narrowing cast, allowlisted panic.
        // (The `expect("invariant: ...")` on line 8 is sanctioned: no finding.)
        (
            "crates/htsim/src/lib.rs".to_string(),
            "C1",
            4,
            col_of("crates/htsim/src/lib.rs", 4, "unwrap"),
            None,
        ),
        (
            "crates/htsim/src/lib.rs".to_string(),
            "C2",
            12,
            col_of("crates/htsim/src/lib.rs", 12, "as u32"),
            None,
        ),
        (
            "crates/htsim/src/lib.rs".to_string(),
            "C1",
            16,
            col_of("crates/htsim/src/lib.rs", 16, "panic"),
            Some(Suppression::Allowlist),
        ),
        // htsim/telemetry: observation-impure exporters (T1 anchors at the
        // fn name; the waiver sits at the effect origin inside the body).
        (
            "crates/htsim/src/telemetry.rs".to_string(),
            "T1",
            4,
            col_of("crates/htsim/src/telemetry.rs", 4, "export_now"),
            None,
        ),
        (
            "crates/htsim/src/telemetry.rs".to_string(),
            "T1",
            9,
            col_of("crates/htsim/src/telemetry.rs", 9, "export_waived"),
            Some(Suppression::Waiver),
        ),
        (
            "crates/htsim/src/telemetry.rs".to_string(),
            "T1",
            15,
            col_of("crates/htsim/src/telemetry.rs", 15, "export_allowlisted"),
            Some(Suppression::Allowlist),
        ),
        // htsim/units: raw SimTime ctor, inline /1e6 conversion, waived twin.
        (
            "crates/htsim/src/units.rs".to_string(),
            "U1",
            4,
            col_of("crates/htsim/src/units.rs", 4, "SimTime"),
            None,
        ),
        (
            "crates/htsim/src/units.rs".to_string(),
            "U1",
            8,
            col_of("crates/htsim/src/units.rs", 8, "1e6"),
            None,
        ),
        (
            "crates/htsim/src/units.rs".to_string(),
            "U1",
            13,
            col_of("crates/htsim/src/units.rs", 13, "1e6"),
            Some(Suppression::Waiver),
        ),
        // htsim/y4: undocumented `unsafe` blocks — active and waived. (The
        // `// SAFETY:`-documented block is clean.)
        (
            "crates/htsim/src/y4.rs".to_string(),
            "Y4",
            5,
            col_of("crates/htsim/src/y4.rs", 5, "unsafe"),
            None,
        ),
        (
            "crates/htsim/src/y4.rs".to_string(),
            "Y4",
            15,
            col_of("crates/htsim/src/y4.rs", 15, "unsafe"),
            Some(Suppression::Waiver),
        ),
        // routing/d2: `sync::atomic`, `thread::scope` and `thread::Builder`
        // in library code — active then waived, each anchored at the token
        // after the `::`. (The same three in the `#[cfg(test)]` module are
        // clean.)
        (
            "crates/routing/src/d2.rs".to_string(),
            "D2",
            5,
            col_of("crates/routing/src/d2.rs", 5, "atomic"),
            None,
        ),
        (
            "crates/routing/src/d2.rs".to_string(),
            "D2",
            7,
            col_of("crates/routing/src/d2.rs", 7, "atomic"),
            Some(Suppression::Waiver),
        ),
        (
            "crates/routing/src/d2.rs".to_string(),
            "D2",
            10,
            col_of("crates/routing/src/d2.rs", 10, "scope"),
            None,
        ),
        (
            "crates/routing/src/d2.rs".to_string(),
            "D2",
            15,
            col_of("crates/routing/src/d2.rs", 15, "scope"),
            Some(Suppression::Waiver),
        ),
        (
            "crates/routing/src/d2.rs".to_string(),
            "D2",
            19,
            col_of("crates/routing/src/d2.rs", 19, "Builder"),
            None,
        ),
        (
            "crates/routing/src/d2.rs".to_string(),
            "D2",
            24,
            col_of("crates/routing/src/d2.rs", 24, "Builder"),
            Some(Suppression::Waiver),
        ),
        // routing: active HashMap, waived HashSet, active wall-clock read.
        (
            "crates/routing/src/lib.rs".to_string(),
            "D1",
            3,
            col_of("crates/routing/src/lib.rs", 3, "HashMap"),
            None,
        ),
        (
            "crates/routing/src/lib.rs".to_string(),
            "D1",
            6,
            col_of("crates/routing/src/lib.rs", 6, "HashSet"),
            Some(Suppression::Waiver),
        ),
        (
            "crates/routing/src/lib.rs".to_string(),
            "D2",
            8,
            col_of("crates/routing/src/lib.rs", 8, "Instant"),
            None,
        ),
        // routing/p1: a private panicking helper (C1) taints `pub fn head`
        // (P1, with origin); one variant waived at the public surface, one
        // at the panic site itself (origin waiver also silences C1 there).
        (
            "crates/routing/src/p1.rs".to_string(),
            "C1",
            5,
            col_of("crates/routing/src/p1.rs", 5, "unwrap"),
            None,
        ),
        (
            "crates/routing/src/p1.rs".to_string(),
            "P1",
            8,
            col_of("crates/routing/src/p1.rs", 8, "head"),
            None,
        ),
        (
            "crates/routing/src/p1.rs".to_string(),
            "P1",
            13,
            col_of("crates/routing/src/p1.rs", 13, "head_waived"),
            Some(Suppression::Waiver),
        ),
        (
            "crates/routing/src/p1.rs".to_string(),
            "C1",
            19,
            col_of("crates/routing/src/p1.rs", 19, "unwrap"),
            Some(Suppression::Waiver),
        ),
        (
            "crates/routing/src/p1.rs".to_string(),
            "P1",
            22,
            col_of("crates/routing/src/p1.rs", 22, "quiet"),
            Some(Suppression::Waiver),
        ),
        // routing/q1: duplicate-prone sort keys — active, waived,
        // allowlisted. (Whole-element and tie-broken sorts are clean.)
        (
            "crates/routing/src/q1.rs".to_string(),
            "Q1",
            5,
            col_of("crates/routing/src/q1.rs", 5, "sort_unstable_by_key"),
            None,
        ),
        (
            "crates/routing/src/q1.rs".to_string(),
            "Q1",
            11,
            col_of("crates/routing/src/q1.rs", 11, "sort_unstable_by_key"),
            Some(Suppression::Waiver),
        ),
        (
            "crates/routing/src/q1.rs".to_string(),
            "Q1",
            16,
            col_of("crates/routing/src/q1.rs", 16, "sort_unstable_by_key"),
            Some(Suppression::Allowlist),
        ),
        // routing/s1: captured-state mutation inside a `map_indexed`
        // closure — active, waived, allowlisted. (`clean` is clean.)
        (
            "crates/routing/src/s1.rs".to_string(),
            "S1",
            16,
            col_of("crates/routing/src/s1.rs", 16, "+="),
            None,
        ),
        (
            "crates/routing/src/s1.rs".to_string(),
            "S1",
            25,
            col_of("crates/routing/src/s1.rs", 25, "+="),
            Some(Suppression::Waiver),
        ),
        (
            "crates/routing/src/s1.rs".to_string(),
            "S1",
            33,
            col_of("crates/routing/src/s1.rs", 33, "+="),
            Some(Suppression::Allowlist),
        ),
        // The stale allowlist entry is itself a finding, anchored at its
        // `[[allow]]` header line.
        ("lint-allowlist.toml".to_string(), "A1", 31, 1, None),
    ];
    assert_eq!(got, expected);
}

#[test]
fn fixture_scan_fails_the_check_gate() {
    let report = scan_fixtures();
    let active: Vec<_> = report.active().map(|f| f.rule).collect();
    // Every enforceable rule trips at least once, and the two meta-rules
    // (dead waiver, stale allowlist entry) are active findings too.
    for rule in [
        "D1", "D2", "D3", "C1", "C2", "W1", "A1", "P1", "M1", "U1", "F1", "T1", "S1", "O1", "Q1",
        "Y4",
    ] {
        assert!(
            active.contains(&rule),
            "rule {rule} missing from {active:?}"
        );
    }
    assert_eq!(active.len(), 21);
}

#[test]
fn fixture_p1_finding_carries_its_panic_origin() {
    let report = scan_fixtures();
    let p1 = report
        .findings
        .iter()
        .find(|f| f.rule == "P1" && f.suppressed.is_none())
        .expect("one active P1 finding");
    assert_eq!(
        p1.origin,
        Some(("crates/routing/src/p1.rs".to_string(), 5)),
        "P1 must point at the transitive panic site"
    );
}

#[test]
fn fixture_suppressions_carry_their_mechanism() {
    let report = scan_fixtures();
    let suppressed: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.suppressed.is_some())
        .map(|f| (f.rule, f.suppressed))
        .collect();
    assert_eq!(
        suppressed,
        vec![
            ("M1", Some(Suppression::Waiver)),
            ("F1", Some(Suppression::Waiver)),
            ("D3", Some(Suppression::Waiver)),
            ("O1", Some(Suppression::Waiver)),
            ("O1", Some(Suppression::Allowlist)),
            ("C1", Some(Suppression::Allowlist)),
            ("T1", Some(Suppression::Waiver)),
            ("T1", Some(Suppression::Allowlist)),
            ("U1", Some(Suppression::Waiver)),
            ("Y4", Some(Suppression::Waiver)),
            ("D2", Some(Suppression::Waiver)),
            ("D2", Some(Suppression::Waiver)),
            ("D2", Some(Suppression::Waiver)),
            ("D1", Some(Suppression::Waiver)),
            ("P1", Some(Suppression::Waiver)),
            ("C1", Some(Suppression::Waiver)),
            ("P1", Some(Suppression::Waiver)),
            ("Q1", Some(Suppression::Waiver)),
            ("Q1", Some(Suppression::Allowlist)),
            ("S1", Some(Suppression::Waiver)),
            ("S1", Some(Suppression::Allowlist)),
        ]
    );
}

/// T1 anchors at the telemetry fn's name but carries the concrete effect
/// site as its origin — that is what lets a single waiver at the effect
/// line (`export_waived`'s `println!`) silence the fn-level finding.
#[test]
fn fixture_t1_findings_carry_their_effect_origins() {
    let report = scan_fixtures();
    let t1: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "T1")
        .map(|f| (f.suppressed, f.origin.clone()))
        .collect();
    let tel = "crates/htsim/src/telemetry.rs".to_string();
    assert_eq!(
        t1,
        vec![
            (None, Some((tel.clone(), 5))),
            (Some(Suppression::Waiver), Some((tel.clone(), 11))),
            (Some(Suppression::Allowlist), Some((tel, 16))),
        ]
    );
}
