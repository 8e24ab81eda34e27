//! `pnet-benchmark` — the repository's measurement spine.
//!
//! ```text
//! pnet-benchmark run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//!                    [--quick] [--out DIR] [--record]
//! pnet-benchmark compare <A> <B>
//! ```
//!
//! `run --workload W` measures one workload in this process and ends its
//! standard output with one JSON result object (the form the benchmark
//! driver calls). `run` without a workload runs all five, each in a fresh
//! child process so that peak memory is per workload, prints every metric
//! by name with its unit, and appends one record to `<out>/runs.jsonl` —
//! with `--record`, also to the tracked `BENCH_trajectory.jsonl`. `compare`
//! sets two such record files side by side. See `README.md` beside this
//! package.

mod clock;
mod compare;
mod json;
mod manifest;
mod run;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use clock::Clock;
use json::{obj, Value};
use manifest::manifest;
use run::{Run, RunSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Cli {
    workload: Option<String>,
    spec: RunSpec,
    out: PathBuf,
    /// Append the record of a full run to `BENCH_trajectory.jsonl`.
    record: bool,
}

/// The package directory: where `cargo run` says the manifest is, else
/// where it was at build time.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn parse_run_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        spec: RunSpec {
            seed: 1,
            seconds: manifest().run_seconds,
            trace: false,
            quick: false,
        },
        out: package_dir().join("out"),
        record: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                cli.spec.seconds = s;
            }
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--quick" => cli.spec.quick = true,
            "--record" => cli.record = true,
            // Bare `--trace` turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                cli.spec.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Measure one workload in this process.
fn run_one(name: &str, cli: &Cli, process_start: Clock) -> Result<bool, String> {
    let known = || manifest().workloads.iter().map(|(n, _)| n.as_str());
    let mut run = Run::new(cli.spec, process_start);
    let workload = known()
        .find(|n| *n == name && workloads::run(n, &mut run))
        .ok_or_else(|| {
            format!(
                "unknown workload {name:?}; known: {}",
                known().collect::<Vec<_>>().join(", ")
            )
        })?;
    let outcome = run.finish(workload);
    outcome.print();
    if cli.spec.trace {
        std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
        let path = cli.out.join(format!("trace-{workload}.json"));
        std::fs::write(&path, outcome.tracer.to_json(workload).render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("note {workload} trace written to {}", path.display());
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// What the parent keeps of one child run.
struct ChildRun {
    /// The child exited 0: it ran and every correctness check passed.
    correct: bool,
    /// `metric <workload> <name> <value> <unit> [exact]` lines, parsed:
    /// `(name, value, exact)`.
    metrics: Vec<(String, f64, bool)>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _, _)| m == name)
            .map(|(_, v, _)| *v)
    }
}

/// Run one workload in a fresh child process, echoing its output (all but
/// the result object, which is for the driver).
fn spawn_child(name: &str, cli: &Cli, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &cli.spec.seed.to_string()])
        .args(["--seconds", &cli.spec.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out)
        .stdout(Stdio::piped());
    if cli.spec.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("running {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut metrics = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", _, metric, value, _unit, mark @ ..] = &fields[..] {
            if let Ok(v) = value.parse() {
                metrics.push((metric.to_string(), v, mark == ["exact"]));
            }
        }
    }
    if metrics.is_empty() {
        return Err(format!(
            "{name}: child exited with {} and no result",
            output.status
        ));
    }
    Ok(ChildRun {
        correct: output.status.success(),
        metrics,
    })
}

/// The commit the measured tree is built from, `-dirty` when the tree
/// differs from it; `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(package_dir())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(rev) if !rev.is_empty() => match git(&["status", "--porcelain"]) {
            Some(changes) if changes.is_empty() => rev,
            _ => rev + "-dirty",
        },
        _ => "unknown".to_string(),
    }
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Run every workload, each in its own process, and record the set.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for (name, _) in &manifest().workloads {
        let plain = spawn_child(name, cli, false)?;
        all_correct &= plain.correct;
        if cli.spec.trace {
            let traced = spawn_child(name, cli, true)?;
            all_correct &= traced.correct;
            // Traced against untraced wall of the same operation: the
            // measured counterpart of `bench.trace_overhead_pct`, which the
            // traced run derives from its span count.
            if let (Some(off), Some(on)) =
                (plain.metric("op_ms_p50"), traced.metric("bench.op_ms_p50"))
            {
                println!(
                    "note {name} traced_vs_untraced_op_ms_pct {}",
                    100.0 * (on / off - 1.0)
                );
            }
        }
        let number = |metric: &str| plain.metric(metric).map_or(Value::Null, Value::Num);
        let end_to_end = manifest()
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), number(&m.name)))
            .collect();
        let exact = plain
            .metrics
            .iter()
            .filter(|(_, _, exact)| *exact)
            .map(|(m, v, _)| (m.clone(), Value::Num(*v)))
            .collect();
        per_workload.push((
            name.clone(),
            obj([
                ("correct", Value::Bool(plain.correct)),
                ("attempted", number("ops_attempted")),
                ("failed", number("ops_failed")),
                ("end_to_end", Value::Obj(end_to_end)),
                ("exact", Value::Obj(exact)),
            ]),
        ));
    }
    let record = obj([
        ("rev", Value::Str(git_rev())),
        ("nproc", Value::Num(run::nproc() as f64)),
        ("threads", Value::Num(run::threads() as f64)),
        ("seed", Value::Num(cli.spec.seed as f64)),
        ("seconds", Value::Num(cli.spec.seconds)),
        ("quick", Value::Bool(cli.spec.quick)),
        ("workloads", Value::Obj(per_workload)),
    ])
    .render();
    append_line(&cli.out.join("runs.jsonl"), &record)?;
    if cli.record {
        append_line(&package_dir().join("BENCH_trajectory.jsonl"), &record)?;
    }
    println!(
        "note record appended to {}",
        cli.out.join("runs.jsonl").display()
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let process_start = Clock::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run_args(rest).and_then(|cli| match &cli.workload {
                Some(name) => run_one(name, &cli, process_start),
                None => run_all(&cli),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two record files or directories".into()),
        },
        _ => Err(
            "usage: pnet-benchmark run [--workload W] [--seed S] [--seconds N] \
                  [--trace [0|1]] [--quick] [--out DIR] [--record] | compare <A> <B>"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pnet-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
