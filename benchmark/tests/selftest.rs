//! Self-test of the benchmark: smoke-size runs of the real binary, checked
//! against `BENCHMARK.json`.

// The package is a single binary, so the two modules the test needs are
// compiled into it from the binary's sources.
#[allow(dead_code)]
#[path = "../src/bin/pnet-benchmark/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../src/bin/pnet-benchmark/manifest.rs"]
mod manifest;

use json::Value;
use manifest::{manifest, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_pnet-benchmark");

fn workloads() -> impl Iterator<Item = &'static str> {
    manifest().workloads.iter().map(|(n, _)| n.as_str())
}

fn scratch(name: &str) -> PathBuf {
    // Inside the package's target directory: the test writes nowhere else.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str], out: &PathBuf) -> (bool, String) {
    let output = Command::new(EXE)
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("output is UTF-8"),
    )
}

/// `metric <workload> <name> <value> <unit> [exact]` lines as
/// `(workload, name) → [(value, unit)]`.
fn metric_lines(text: &str) -> BTreeMap<(String, String), Vec<(f64, String)>> {
    let mut out: BTreeMap<(String, String), Vec<(f64, String)>> = BTreeMap::new();
    for line in text.lines().filter(|l| l.starts_with("metric ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert!(
            f.len() == 5 || (f.len() == 6 && f[5] == "exact"),
            "malformed metric line {line:?}"
        );
        let value: f64 = f[3]
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        assert!(value.is_finite(), "{line}");
        assert!(
            f[2].chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {:?} has a character outside [A-Za-z0-9_.-]",
            f[2]
        );
        assert!(!f[4].is_empty(), "{line:?} has no unit");
        out.entry((f[1].to_string(), f[2].to_string()))
            .or_default()
            .push((value, f[4].to_string()));
    }
    out
}

#[test]
fn quick_run_prints_every_listed_metric_and_passes_its_checks() {
    let out = scratch("full");

    let (ok, plain) = run(&["run", "--quick"], &out);
    assert!(ok, "run --quick failed:\n{plain}");
    let (ok, traced) = run(&["run", "--quick", "--trace"], &out);
    assert!(ok, "run --quick --trace failed:\n{traced}");
    for text in [&plain, &traced] {
        assert!(
            !text.contains("FAILED"),
            "a correctness check failed:\n{text}"
        );
    }

    // End-to-end metrics: once per workload from the untraced run.
    let lines = metric_lines(&plain);
    for workload in workloads() {
        for def in &manifest().end_to_end {
            let got = lines
                .get(&(workload.to_string(), def.name.clone()))
                .unwrap_or_else(|| panic!("{workload} did not print {}", def.name));
            assert_eq!(
                got.len(),
                1,
                "{workload} printed {} more than once",
                def.name
            );
            assert_eq!(got[0].1, def.unit);
            assert!(got[0].0 > 0.0, "{workload} {} must never be 0", def.name);
        }
        let failed = &lines[&(workload.to_string(), "ops_failed".to_string())];
        assert_eq!(failed[0].0, 0.0, "{workload} has failed operations");
        let attempted = &lines[&(workload.to_string(), "ops_attempted".to_string())];
        assert!(attempted[0].0 >= 1.0);
    }

    // Per-layer metrics: from the traced run, which `run --trace` starts
    // after the untraced one. Every listed metric is printed by at least one
    // workload, at most once by each, with its unit. (The binary refuses to
    // record a metric that is not listed.)
    let traced_only: String = traced
        .split("\nworkload ")
        .filter(|block| block.contains(" trace 1 "))
        .map(|block| format!("workload {block}\n"))
        .collect();
    let lines = metric_lines(&traced_only);
    for def in &manifest().per_layer {
        let printed: Vec<_> = lines.iter().filter(|((_, m), _)| *m == def.name).collect();
        assert!(!printed.is_empty(), "no workload printed {}", def.name);
        for ((workload, _), got) in printed {
            assert_eq!(
                got.len(),
                1,
                "{workload} printed {} more than once",
                def.name
            );
            assert_eq!(got[0].1, def.unit);
        }
    }
    // Layer self times account for the traced timed wall.
    let mut accounted = 0;
    for line in traced.lines().filter(|l| l.contains(" layer_self_sum_ms ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let (layers, wall): (f64, f64) = (f[3].parse().unwrap(), f[5].parse().unwrap());
        assert!(
            (wall - layers).abs() <= 0.05 * wall,
            "layer self times {layers} ms are not within 5% of the timed wall {wall} ms: {line}"
        );
        accounted += 1;
    }
    assert_eq!(accounted, workloads().count());

    // One record per full run.
    let records = std::fs::read_to_string(out.join("runs.jsonl")).unwrap();
    assert_eq!(records.lines().count(), 2);
    for line in records.lines() {
        let r = json::parse(line).unwrap();
        assert_eq!(r.get("quick").and_then(Value::as_bool), Some(true));
        assert_eq!(
            r.get("workloads").and_then(Value::as_obj).unwrap().len(),
            workloads().count()
        );
    }
    for workload in workloads() {
        assert!(out.join(format!("trace-{workload}.json")).is_file());
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn single_workload_run_ends_with_the_driver_result_object() {
    let out = scratch("single");
    let lists: [(&str, &[Metric]); 2] =
        [("0", &manifest().end_to_end), ("1", &manifest().per_layer)];
    for (trace, defs) in lists {
        for workload in workloads() {
            let (ok, text) = run(
                &[
                    "run",
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--quick",
                ],
                &out,
            );
            assert!(ok, "{workload} --trace {trace} failed:\n{text}");
            let result = json::parse(text.lines().last().unwrap()).expect("last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
            assert_eq!(metrics.len(), defs.len());
            for ((name, v), def) in metrics.iter().zip(defs) {
                assert_eq!(*name, def.name);
                assert_eq!(
                    v.get("unit").and_then(Value::as_str),
                    Some(def.unit.as_str())
                );
                assert!(v.get("value").and_then(Value::as_f64).unwrap().is_finite());
            }
        }
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = scratch("bad");
    let (ok, text) = run(&["run", "--workload", "no_such_workload"], &out);
    assert!(!ok);
    assert!(
        text.is_empty(),
        "an unknown workload must not print a result"
    );
    std::fs::remove_dir_all(&out).ok();
}
