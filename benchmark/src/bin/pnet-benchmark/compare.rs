//! `compare <A> <B>` — two sets of run records side by side.
//!
//! One row per (workload, end-to-end metric): both medians and quartiles,
//! how much worse B's median is as a share of A's (the base), the metric's
//! bound, and a verdict. `worse` means B is beyond the bound; `unresolved`
//! means it is not, but a set's own quartile spread is wider than the
//! bound, so "no change" cannot be claimed either. Exact counters are
//! compared exactly, seed by seed.

use crate::json::{self, Value};
use crate::manifest::{manifest, Better};
use crate::stats::Sample;
use std::collections::BTreeMap;
use std::path::Path;

/// `(seed, workload) → [(counter, value)]`.
type ExactCounters = BTreeMap<(u64, String), Vec<(String, f64)>>;

/// One set of records: the lines of a `runs.jsonl`.
struct RunSet {
    records: Vec<Value>,
}

impl RunSet {
    /// `path` is a record file, or a directory holding `runs.jsonl`.
    fn load(path: &Path) -> Result<RunSet, String> {
        let file = if path.is_dir() {
            path.join("runs.jsonl")
        } else {
            path.to_path_buf()
        };
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        RunSet::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
    }

    /// One record per non-empty line.
    fn parse(text: &str) -> Result<RunSet, String> {
        let records = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .enumerate()
            .map(|(i, l)| json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
            .collect::<Result<Vec<_>, _>>()?;
        if records.is_empty() {
            return Err("no records".to_string());
        }
        Ok(RunSet { records })
    }

    /// Values of one end-to-end metric of one workload, over the records.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| {
                r.get("workloads")?
                    .get(workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .as_f64()
            })
            .collect()
    }

    /// Exact counters per seed and workload; an error if two records of
    /// the same seed disagree with each other.
    fn exact(&self) -> Result<ExactCounters, String> {
        let mut out = ExactCounters::new();
        for r in &self.records {
            let seed = r.get("seed").and_then(Value::as_f64).unwrap_or(-1.0) as u64;
            for (workload, w) in r.get("workloads").and_then(Value::as_obj).unwrap_or(&[]) {
                let counters: Vec<(String, f64)> = w
                    .get("exact")
                    .and_then(Value::as_obj)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect();
                match out.get(&(seed, workload.clone())) {
                    Some(prev) if *prev != counters => {
                        return Err(format!(
                            "records of seed {seed} disagree on the exact counters of {workload}"
                        ))
                    }
                    _ => {
                        out.insert((seed, workload.clone()), counters);
                    }
                }
            }
        }
        Ok(out)
    }

    fn all_correct(&self) -> bool {
        self.records.iter().all(|r| {
            r.get("workloads")
                .and_then(Value::as_obj)
                .unwrap_or(&[])
                .iter()
                .all(|(_, w)| w.get("correct").and_then(Value::as_bool) == Some(true))
        })
    }
}

/// Quartile spread as a share of the median; 0 for a single sample, whose
/// spread is unknown (the row says `n=1`).
fn spread(s: &Sample) -> f64 {
    s.quartiles().map_or(0.0, |(q1, q3)| {
        (q3 - q1) / s.median().abs().max(f64::MIN_POSITIVE)
    })
}

fn quartile_text(s: &Sample) -> String {
    match s.quartiles() {
        Some((q1, q3)) => format!("[{q1:.4}, {q3:.4}]"),
        None => "[n=1]".to_string(),
    }
}

/// Print the comparison; `Ok(false)` on a `worse` row, a counter mismatch
/// or an incorrect run.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    compare_sets(&RunSet::load(a)?, &RunSet::load(b)?)
}

fn compare_sets(set_a: &RunSet, set_b: &RunSet) -> Result<bool, String> {
    let mut pass = true;
    println!(
        "{:<17} {:<12} {:>3} {:>12} {:<24} {:>3} {:>12} {:<24} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "quartiles A",
        "nB",
        "median B",
        "quartiles B",
        "worse by",
        "bound"
    );
    for (workload, _) in &manifest().workloads {
        for m in &manifest().end_to_end {
            let (Some(sa), Some(sb)) = (
                Sample::new(&set_a.values(workload, &m.name)),
                Sample::new(&set_b.values(workload, &m.name)),
            ) else {
                continue;
            };
            let (ma, mb) = (sa.median(), sb.median());
            // Share of A's median by which B is worse (negative: better).
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let verdict = if worse_by > m.bound {
                pass = false;
                "worse"
            } else if spread(&sa).max(spread(&sb)) > m.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<17} {:<12} {:>3} {:>12.4} {:<24} {:>3} {:>12.4} {:<24} {:>+8.2}% {:>5.0}%  {verdict}",
                workload,
                m.name,
                sa.n(),
                ma,
                quartile_text(&sa),
                sb.n(),
                mb,
                quartile_text(&sb),
                100.0 * worse_by,
                100.0 * m.bound,
            );
        }
    }

    let (exact_a, exact_b) = (set_a.exact()?, set_b.exact()?);
    let mut compared = 0;
    for (key, counters_a) in &exact_a {
        let Some(counters_b) = exact_b.get(key) else {
            continue;
        };
        let (seed, workload) = key;
        let names: std::collections::BTreeSet<&String> = counters_a
            .iter()
            .chain(counters_b)
            .map(|(n, _)| n)
            .collect();
        for name in names {
            let find = |c: &[(String, f64)]| c.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let (va, vb) = (find(counters_a), find(counters_b));
            compared += 1;
            if va != vb {
                pass = false;
                println!("counter mismatch: seed {seed} {workload} {name}: A {va:?} B {vb:?}");
            }
        }
    }
    println!("exact counters compared: {compared} (seeds present in both sets)");
    if compared == 0 {
        println!("note: the sets share no seed, so no counter could be compared");
    }
    if !(set_a.all_correct() && set_b.all_correct()) {
        pass = false;
        println!("a set holds a run that failed its correctness checks");
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, op_ms: f64, events: f64) -> String {
        format!(
            "{{\"seed\": {seed}, \"workloads\": {{\"packet_bulk\": {{\"correct\": true, \
             \"end_to_end\": {{\"op_ms_p50\": {op_ms}, \"peak_rss_mb\": 100, \"setup_s\": 3}}, \
             \"exact\": {{\"htsim.events\": {events}}}}}}}}}"
        )
    }

    fn set(records: &[String]) -> RunSet {
        RunSet::parse(&records.join("\n")).unwrap()
    }

    #[test]
    fn same_numbers_pass_and_a_slowdown_or_counter_drift_fails() {
        let records = |op_ms: f64, events: f64| -> Vec<String> {
            (1..=4)
                .map(|s| record(s, op_ms + s as f64, events))
                .collect()
        };
        let base = set(&records(2000.0, 15e6));
        assert_eq!(compare_sets(&base, &set(&records(2000.0, 15e6))), Ok(true));
        assert_eq!(compare_sets(&base, &set(&records(3000.0, 15e6))), Ok(false));
        assert_eq!(
            compare_sets(&base, &set(&records(2000.0, 15e6 + 1.0))),
            Ok(false)
        );
        // Faster is never `worse`.
        assert_eq!(compare_sets(&base, &set(&records(1500.0, 15e6))), Ok(true));
    }

    #[test]
    fn unreadable_or_empty_sets_are_errors() {
        assert!(compare(Path::new("/no/such/set"), Path::new("/no/such/set")).is_err());
        assert!(RunSet::parse("\n\n").is_err());
        assert!(RunSet::parse("{not json").is_err());
    }
}
