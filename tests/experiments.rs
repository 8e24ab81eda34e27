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

/// `pnet` with `argv`, run to the end.
fn pnet(argv: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pnet"))
        .args(argv)
        .output()
        .expect("failed to launch pnet")
}

/// `argv` is refused before any work: exit 2 and one line on stderr that
/// starts with `flag` and its value, never a panic (exit 101).
fn assert_rejected(argv: &[&str], flag: &str) {
    let out = pnet(argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    assert!(stderr.starts_with(flag), "{argv:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{argv:?} printed a report");
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
        let full: Vec<&str> = [sub].into_iter().chain(argv.iter().copied()).collect();
        assert_rejected(&[full, rest.flatten().copied().collect()].concat(), flag);
    }
    // A solver refusal after the report has begun is exit 2 as well, with
    // the solver's reason on one line: cutting all 48 fabric cables leaves
    // every rack unreachable for the what-if solve.
    let out = pnet(&[&["plan", "--what-if-cables", "48"][..], &small].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "pnet plan: flow solver: commodity 0 has no allowed path\n"
    );
}

/// Every flag value that once panicked or hung, in the subcommands and in
/// the experiments alike, is refused at the flag.
#[test]
fn values_the_library_cannot_use_exit_2_naming_the_flag() {
    let mut cases: Vec<(Vec<&str>, &str)> = Vec::new();
    for sub in ["topology", "route", "throughput", "plan", "simulate"] {
        cases.push((vec![sub, "--kind", "fattree", "--k", "3"], "--k 3"));
    }
    for sub in ["throughput", "plan", "simulate", "route"] {
        cases.push((vec![sub, "--hosts-per-tor", "0"], "--hosts-per-tor 0"));
    }
    // One 2-tier plane of radix-128 chips connects 8 192 hosts at most.
    for sub in [&["components"][..], &["exp", "table1"]] {
        for flag in ["--hosts 0", "--hosts 8193", "--planes 0", "--planes 9"] {
            let argv = [sub, &flag.split(' ').collect::<Vec<_>>()].concat();
            cases.push((argv, flag));
        }
    }
    for (argv, flag) in [
        (&["exp", "fig6", "--k", "3"][..], "--k 3"),
        (&["topology", "--tors", "8", "--degree", "1"], "--degree 1"),
        (
            &["exp", "fig8", "--hosts-per-tor", "0"],
            "--hosts-per-tor 0",
        ),
        (&["exp", "fig7", "--racks", "1"], "--racks 1"),
        (&["exp", "fig7", "--degree", "0"], "--degree 0"),
        (&["exp", "fig7", "--planes", "0"], "--planes 0"),
        (&["exp", "fig9", "--planes", "0"], "--planes 0"),
        (&["plan", "--kpaths", "0"], "--kpaths 0"),
        (&["plan", "--eps", "0"], "--eps 0"),
        (&["plan", "--sweep", "0"], "--sweep 0"),
        (&["exp", "fig6", "--eps", "0"], "--eps 0"),
        (&["exp", "fig6", "--ksweep", "0"], "--ksweep 0"),
        (&["exp", "fig8", "--ksweep", "0"], "--ksweep 0"),
        (&["exp", "fig11", "--concurrency", "0"], "--concurrency 0"),
        (
            &[
                "exp", "fig10", "--queue", "0", "--tors", "8", "--degree", "3", "--rounds", "1",
            ],
            "--queue 0",
        ),
        (&["route", "--src", "3", "--dst", "3"], "--dst 3"),
    ] {
        cases.push((argv.to_vec(), flag));
    }
    for (argv, flag) in cases {
        assert_rejected(&argv, flag);
    }
}

/// The flags `pnet <sub>` declares, as its rejection of an unknown flag
/// lists them.
fn declared_flags(sub: &str) -> Vec<String> {
    let out = pnet(&[sub, "--no-such-flag"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (_, declared) = stderr
        .split_once("declared flags: ")
        .unwrap_or_else(|| panic!("{sub}: {stderr}"));
    let words = declared.split_whitespace();
    words
        .filter_map(|w| w.strip_prefix("--"))
        .map(String::from)
        .collect()
}

/// A seeded walk over single-flag changes to a small fabric: whatever the
/// value, `pnet` answers (exit 0) or names what it refused (exit 2) within
/// 20 s — never a panic (101), another failure or a hang.
#[test]
fn single_flag_changes_exit_0_or_2_within_20_s() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::time::Duration;
    let small = ["--tors", "8", "--degree", "3", "--hosts-per-tor", "1"];
    let subs = ["throughput", "route", "plan", "simulate"];
    let declared: Vec<Vec<String>> = subs.iter().map(|s| declared_flags(s)).collect();
    let values = ["0", "1", "2", "3", "7", "-1", "x"];
    let mut rng = StdRng::seed_from_u64(30);
    for _ in 0..36 {
        let s = rng.random_range(0..subs.len());
        // `--trace-out` names a file to write, not a value to check.
        let flags: Vec<&String> = declared[s].iter().filter(|f| *f != "trace-out").collect();
        let flag = format!("--{}", flags[rng.random_range(0..flags.len())]);
        let value = values[rng.random_range(0..values.len())];
        let argv: Vec<&str> = [subs[s]]
            .into_iter()
            .chain(small)
            .chain([flag.as_str(), value])
            .collect();
        let mut child = Command::new(env!("CARGO_BIN_EXE_pnet"))
            .args(&argv)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("failed to launch pnet");
        // 1 000 polls 20 ms apart: at least 20 s, read without a wall clock.
        let polls = (0..1_000).map(|_| {
            let exited = child.try_wait().expect("pnet is waitable");
            if exited.is_none() {
                std::thread::sleep(Duration::from_millis(20));
            }
            exited
        });
        let Some(status) = polls.flatten().next() else {
            child.kill().expect("a running pnet can be killed");
            panic!("{argv:?} ran past 20 s");
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
            .expect("stderr is text");
        assert!(
            matches!(status.code(), Some(0 | 2)),
            "{argv:?} exited {status}: {stderr}"
        );
    }
}
