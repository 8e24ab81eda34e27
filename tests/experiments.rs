//! The experiment registry's contract: every entry is well-formed, the
//! committed `results/exp_<name>.txt` is what the code prints, and a command
//! line an experiment did not declare is a typed error with exit code 2 —
//! never a silent run of the defaults, never a panic.

use pnet_bench::{dispatch, ArgErrorKind, Error, REGISTRY};
use std::collections::BTreeSet;
use std::process::Command;

fn run(argv: &[&str]) -> Result<Vec<u8>, Error> {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    dispatch(&argv, &mut out).map(|()| out)
}

fn rejection(argv: &[&str]) -> ArgErrorKind {
    match run(argv) {
        Err(Error::Args(e)) => e.kind,
        other => panic!("{argv:?} should be rejected, got {other:?}"),
    }
}

#[test]
fn registry_entries_are_well_formed() {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    let expected = "table1 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 appendix incast \
                    isolation mixed loadsweep expand";
    assert_eq!(names.join(" "), expected);
    for e in REGISTRY {
        assert!(!e.about.is_empty(), "{}: empty about", e.name);
        let flags: BTreeSet<&str> = e.params.iter().map(|p| p.0).collect();
        assert_eq!(flags.len(), e.params.len(), "{}: duplicate flag", e.name);
        for (flag, default, help) in e.params {
            assert!(!help.is_empty(), "{} --{flag}: empty help", e.name);
            assert!(!default.is_empty(), "{} --{flag}: no default", e.name);
        }
    }
    let listing = String::from_utf8(run(&[]).unwrap()).unwrap();
    let listed: Vec<&str> = listing
        .lines()
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, names, "`pnet exp` lists the registry");
}

/// The experiments that finish in well under a second in release.
#[test]
fn committed_results_are_what_the_code_prints() {
    for name in ["table1", "expand", "fig14", "isolation", "incast"] {
        let path = format!("{}/results/exp_{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let printed = run(&[name]).unwrap();
        assert!(
            printed == committed,
            "{path} is stale; `pnet exp {name}` prints:\n{}",
            String::from_utf8_lossy(&printed)
        );
    }
}

#[test]
fn undeclared_input_is_a_typed_error() {
    assert!(matches!(run(&["fig99"]), Err(Error::UnknownExperiment(n)) if n == "fig99"));
    for e in REGISTRY {
        // What `exp_fig8 --merge-mode x` and `exp_fig10 tors 98` used to
        // swallow, on every experiment.
        assert_eq!(
            rejection(&[e.name, "--merge-mode", "x"]),
            ArgErrorKind::UnknownFlag("merge-mode".into())
        );
        assert_eq!(
            rejection(&[e.name, "tors", "98"]),
            ArgErrorKind::StrayWord("tors".into())
        );
        // Every declared flag is read, and read before any work is done: a
        // bad value for any of them comes back at once.
        for (flag, default, _) in e.params {
            let dashed = format!("--{flag}");
            let argv = [e.name, dashed.as_str(), "?"];
            let expected = if *default == "off" {
                ArgErrorKind::StrayWord("?".into())
            } else {
                ArgErrorKind::BadValue {
                    flag: flag.to_string(),
                    value: "?".into(),
                }
            };
            assert_eq!(rejection(&argv), expected, "{} {dashed} ?", e.name);
        }
    }
    assert_eq!(
        rejection(&["fig14", "--trials", "--csv"]),
        ArgErrorKind::MissingValue("trials".into())
    );
}

#[test]
fn the_binary_exits_2_naming_the_declared_flags() {
    for argv in [
        &["exp", "fig10", "tors", "98"][..],
        &["exp", "fig8", "--merge-mode", "x"],
        &["exp", "fig14", "--trials", "many"],
        &["exp", "fig99"],
        &["route", "--hops", "3"],
        &["components", "--hosts", "lots"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pnet"))
            .args(argv)
            .output()
            .expect("failed to launch pnet");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed a report");
        let names = if argv[1] == "fig99" {
            "known: table1 fig6"
        } else {
            "declared flags: --"
        };
        assert!(stderr.contains(names), "{argv:?}: {stderr}");
    }
}

/// Flag values the library would panic on are a one-line message naming the
/// flag, with exit 2: never a panic (exit 101).
#[test]
fn subcommands_reject_unbuildable_flags_without_a_panic() {
    let small = ["--tors", "8", "--degree", "3", "--hosts-per-tor", "1"];
    for (sub, argv, flag) in [
        ("throughput", &["--planes", "0"][..], "--planes 0"),
        ("throughput", &["--eps", "2"], "--eps 2"),
        ("throughput", &["--kpaths", "0"], "--kpaths 0"),
        (
            "throughput",
            &["--tors", "5", "--degree", "3"],
            "--degree 3",
        ),
        ("route", &["--kpaths", "0", "--policy", "ksp"], "--kpaths 0"),
    ] {
        // The topology flags the case does not set come from `small`.
        let rest = small.chunks(2).filter(|pair| !argv.contains(&pair[0]));
        let out = Command::new(env!("CARGO_BIN_EXE_pnet"))
            .arg(sub)
            .args(argv)
            .args(rest.flatten())
            .output()
            .expect("failed to launch pnet");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(stderr.starts_with(flag), "{argv:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed a report");
    }
}
