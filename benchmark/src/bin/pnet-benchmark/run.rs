//! One workload run: the clock, the recorder, the yardstick, the metric
//! values and the correctness ledger a workload fills in, and the lines it
//! prints.
//!
//! The end-to-end time metrics (`op_ms_p50`, `setup_s`) are walls of this run
//! stated at nominal machine speed: multiplied by the run's yardstick factor
//! (see `yardstick.rs`), and so are their traced counterparts
//! `bench.op_ms_p50` and `bench.op_ms_tail`. Everything else — the per-layer
//! timings of the traced run, the notes — is the wall as the clock read it.

use crate::clock::Clock;
use crate::json::{obj, Value};
use crate::manifest::{manifest, Metric, LAYERS};
use crate::stats::Sample;
use crate::trace::{Phase, Tracer};
use crate::yardstick::{Yardstick, NOMINAL_MS};
use std::collections::BTreeMap;

/// What the command line asked of a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    /// Length of the timed window. Work is cut at operation boundaries, so
    /// the window overshoots by at most one operation.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke sizes: tiny fabrics and one timed operation. For the
    /// self-test, never for numbers.
    pub quick: bool,
}

/// State of a run in progress.
pub struct Run {
    pub spec: RunSpec,
    pub tracer: Tracer,
    yardstick: Yardstick,
    process_start: Clock,
    timed_start: Option<Clock>,
    cpu_at_timed_start: f64,
    cpu_vs_wall_pct: f64,
    setup_s: f64,
    peak_rss_mb: Option<f64>,
    warm_up_ms: Option<f64>,
    /// Wall of every timed operation, in order.
    op_walls_ms: Vec<f64>,
    /// Timed work that is not an operation of its own (planner publishes).
    aside_ms: f64,
    /// The sample `op_ms_p50` is taken over, when it is not every
    /// operation (the planner reports the queries that ran a solve).
    pub latency_ms: Vec<f64>,
    /// Per-layer metrics set so far: `name → (value, exact)`.
    values: BTreeMap<String, (f64, bool)>,
    pub failed_ops: u64,
    failures: Vec<String>,
}

impl Run {
    pub fn new(spec: RunSpec, process_start: Clock) -> Run {
        Run {
            spec,
            tracer: Tracer::new(spec.trace),
            yardstick: Yardstick::new(),
            process_start,
            timed_start: None,
            cpu_at_timed_start: 0.0,
            cpu_vs_wall_pct: 0.0,
            setup_s: 0.0,
            peak_rss_mb: None,
            warm_up_ms: None,
            op_walls_ms: Vec::new(),
            aside_ms: 0.0,
            latency_ms: Vec::new(),
            values: BTreeMap::new(),
            failed_ops: 0,
            failures: Vec::new(),
        }
    }

    /// The discarded warm-up operation of a pass-based workload. Its wall
    /// is printed so that the first-pass drift can be read off any run.
    pub fn warm_up<R>(&mut self, f: impl FnOnce(&Tracer) -> R) -> R {
        let t0 = Clock::start();
        let out = f(&self.tracer);
        self.warm_up_ms = Some(t0.elapsed_ms());
        out
    }

    /// End of set-up: everything since process start, the discarded warm-up
    /// included, is `setup_s`.
    pub fn begin_timed(&mut self) {
        self.measure_machine();
        self.setup_s = self.process_start.elapsed_s();
        self.cpu_at_timed_start = process_cpu_seconds();
        self.timed_start = Some(Clock::start());
    }

    /// True while the timed window is open. Under `--quick` it closes after
    /// the first operation.
    pub fn time_left(&self) -> bool {
        let start = self.timed_start.expect("begin_timed comes first");
        !self.spec.quick && start.elapsed_s() < self.spec.seconds
    }

    /// Take the yardstick samples owed for the work since the last ones.
    /// Always between operations, never inside one.
    fn measure_machine(&mut self) {
        if self.yardstick.owed() == 0 {
            return;
        }
        let _span = self.tracer.span("bench.yardstick");
        self.yardstick.catch_up();
    }

    /// Operations timed so far.
    pub fn n_ops(&self) -> usize {
        self.op_walls_ms.len()
    }

    /// Run `f` as timed work of operation number `op`, under a root span.
    fn timed<R>(&mut self, op: usize, f: impl FnOnce(&Tracer) -> R) -> (R, f64) {
        self.tracer.set_phase(Phase::Op(op as u32));
        let t0 = Clock::start();
        let out = {
            let _root = self.tracer.span("bench.op");
            f(&self.tracer)
        };
        let ms = t0.elapsed_ms();
        self.tracer.set_phase(Phase::After);
        (out, ms)
    }

    /// Time one operation. Returns its result and wall in milliseconds.
    pub fn op<R>(&mut self, f: impl FnOnce(&Tracer) -> R) -> (R, f64) {
        self.measure_machine();
        let (out, ms) = self.timed(self.op_walls_ms.len(), f);
        self.op_walls_ms.push(ms);
        (out, ms)
    }

    /// Time work that belongs to the closed loop but is not an operation
    /// (its spans are filed under the operation before it).
    pub fn aside<R>(&mut self, f: impl FnOnce(&Tracer) -> R) -> (R, f64) {
        let (out, ms) = self.timed(self.op_walls_ms.len().saturating_sub(1), f);
        self.aside_ms += ms;
        (out, ms)
    }

    /// Take `peak_rss_mb` now rather than when the timed window closes.
    /// Workloads whose memory grows with the number of operations call this
    /// after a fixed amount of work, so that a faster run, which fits more
    /// operations into the window, does not read as a bigger one.
    pub fn mark_peak_rss(&mut self) {
        self.peak_rss_mb.get_or_insert_with(peak_rss_mb);
    }

    /// Close the timed window. Peak memory is read here at the latest: the
    /// correctness checks that follow build structures of their own, which
    /// are not the workload's.
    pub fn end_timed(&mut self) {
        self.mark_peak_rss();
        let start = self.timed_start.expect("begin_timed comes first");
        let wall = start.elapsed_s();
        let cpu = process_cpu_seconds() - self.cpu_at_timed_start;
        self.cpu_vs_wall_pct = 100.0 * cpu / wall.max(1e-9);
    }

    /// Sum of the timed work, in milliseconds.
    pub fn timed_wall_ms(&self) -> f64 {
        self.op_walls_ms.iter().sum::<f64>() + self.aside_ms
    }

    /// Record a per-layer metric measured with a clock. Kept in the traced
    /// run only, which is where per-layer timings come from.
    pub fn set(&mut self, name: &str, value: f64) {
        if self.spec.trace {
            self.record(name, value, false);
        }
    }

    /// Record an exact counter: a value that repeats exactly for a given
    /// seed, is kept in every run, and is compared exactly, never with a
    /// tolerance.
    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.record(name, value, true);
    }

    /// The name must be listed in `BENCHMARK.json`: a typo is a bug in the
    /// benchmark, not a new metric.
    fn record(&mut self, name: &str, value: f64, exact: bool) {
        assert!(
            manifest().per_layer_metric(name).is_some(),
            "metric {name} is not in BENCHMARK.json"
        );
        self.values.insert(name.to_string(), (value, exact));
    }

    /// A correctness check that is not tied to one operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// A correctness check on one operation; a failure counts it failed.
    pub fn check_op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_ops += 1;
            self.failures.push(what());
        }
    }

    /// Median of the timed spans called `name`, in units of `per_ns`
    /// nanoseconds; 0 when tracing is off or no such span was recorded.
    pub fn span_median(&self, name: &str, per_ns: f64) -> f64 {
        Sample::new(
            &self
                .tracer
                .durations_ns(name, |p| matches!(p, Phase::Op(_))),
        )
        .map_or(0.0, |s| s.median() / per_ns)
    }

    /// Derive the metrics every workload shares and return the finished
    /// result.
    pub fn finish(mut self, workload: &'static str) -> Outcome {
        let n_ops = self.op_walls_ms.len();
        assert!(n_ops > 0, "{workload} timed no operation");
        let timed_ms = self.timed_wall_ms();
        let latency = if self.latency_ms.is_empty() {
            &self.op_walls_ms
        } else {
            &self.latency_ms
        };
        let latency = Sample::new(latency).expect("operation walls are finite");

        let self_ns = self.tracer.layer_self_ns(|p| matches!(p, Phase::Op(_)));
        let layer_self_sum_ms = LAYERS
            .iter()
            .filter_map(|layer| self_ns.get(layer))
            .sum::<f64>()
            / 1e6;

        let to_nominal = self.yardstick.to_nominal();
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert("op_ms_p50", latency.median() * to_nominal);
        end_to_end.insert(
            "peak_rss_mb",
            self.peak_rss_mb.expect("end_timed comes before finish"),
        );
        end_to_end.insert("setup_s", self.setup_s * to_nominal);

        if self.tracer.enabled() {
            let (tail_pct, tail_ms) = latency.tail();
            // The traced counterparts of `op_ms_p50`, at nominal speed too.
            self.set("bench.op_ms_p50", latency.median() * to_nominal);
            self.set("bench.op_ms_tail", tail_ms * to_nominal);
            self.set("bench.op_tail_pct", tail_pct);
            self.set("bench.op_samples", latency.n() as f64);
            self.set("bench.yardstick_ms_p50", self.yardstick.median_ms());
            self.set("bench.cpu_vs_wall_pct", self.cpu_vs_wall_pct);
            self.set("bench.spans", self.tracer.n_spans() as f64);
            let overhead_ms = self.tracer.n_timed_spans() as f64 * Tracer::span_cost_ns() / 1e6;
            self.set("bench.trace_overhead_pct", 100.0 * overhead_ms / timed_ms);

            for layer in LAYERS {
                let ms = self_ns.get(layer).copied().unwrap_or(0.0) / 1e6;
                self.set(&format!("{layer}.self_ms"), ms / n_ops as f64);
                self.set(&format!("{layer}.self_pct"), 100.0 * ms / timed_ms);
            }
        }

        Outcome {
            workload,
            spec: self.spec,
            attempted: n_ops as u64,
            failed: self.failed_ops,
            failures: self.failures,
            end_to_end,
            values: self.values,
            yardstick: (self.yardstick.median_ms(), self.yardstick.n_samples()),
            op_samples: latency.n(),
            op_quartiles: latency.quartiles(),
            op_walls_ms: self.op_walls_ms,
            warm_up_ms: self.warm_up_ms,
            timed_wall_ms: timed_ms,
            layer_self_sum_ms,
            tracer: self.tracer,
        }
    }
}

/// A finished workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub spec: RunSpec,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics the workload set: `name → (value, exact)`.
    pub values: BTreeMap<String, (f64, bool)>,
    /// Median yardstick sample in milliseconds, and how many were taken.
    pub yardstick: (f64, usize),
    pub op_samples: usize,
    pub op_quartiles: Option<(f64, f64)>,
    /// Wall of every timed operation, in order.
    pub op_walls_ms: Vec<f64>,
    pub warm_up_ms: Option<f64>,
    pub timed_wall_ms: f64,
    /// Sum of the product layers' self times inside timed operations.
    pub layer_self_sum_ms: f64,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Value of an end-to-end metric of `BENCHMARK.json`; one this file
    /// does not compute is a bug in the benchmark.
    fn end_to_end(&self, m: &Metric) -> f64 {
        *self
            .end_to_end
            .get(m.name.as_str())
            .unwrap_or_else(|| panic!("end-to-end metric {} is not measured", m.name))
    }

    /// Human-readable lines: every metric by name with its unit. Exact
    /// counters print in both modes, marked `exact`; timings derived from
    /// spans only when traced.
    pub fn print(&self) {
        let w = self.workload;
        println!(
            "workload {w} seed {} seconds {} trace {} threads {} nproc {}",
            self.spec.seed,
            self.spec.seconds,
            u8::from(self.spec.trace),
            threads(),
            nproc()
        );
        if !self.spec.trace {
            for m in &manifest().end_to_end {
                println!("metric {w} {} {} {}", m.name, self.end_to_end(m), m.unit);
            }
            let (yardstick_ms, n) = self.yardstick;
            println!(
                "note {w} yardstick_ms {yardstick_ms} over {n} samples, nominal {NOMINAL_MS}: \
                 op_ms_p50 and setup_s are walls times {}",
                NOMINAL_MS / yardstick_ms
            );
            if let Some((q1, q3)) = self.op_quartiles {
                println!(
                    "note {w} op_ms wall quartiles {q1} {q3} over {} samples",
                    self.op_samples
                );
            }
            if self.op_walls_ms.len() <= 16 {
                println!("note {w} op_ms wall samples {:?}", self.op_walls_ms);
            }
            if let Some(ms) = self.warm_up_ms {
                println!("note {w} warm_up_ms {ms}");
            }
        }
        for m in &manifest().per_layer {
            if let Some((v, exact)) = self.values.get(&m.name) {
                let mark = if *exact { " exact" } else { "" };
                println!("metric {w} {} {v} {}{mark}", m.name, m.unit);
            }
        }
        if self.spec.trace {
            println!(
                "note {w} layer_self_sum_ms {} timed_wall_ms {}",
                self.layer_self_sum_ms, self.timed_wall_ms
            );
        }
        println!("metric {w} ops_attempted {} count", self.attempted);
        println!("metric {w} ops_failed {} count", self.failed);
        for f in &self.failures {
            println!("FAILED {w} {f}");
        }
    }

    /// The last line of standard output: the driver's result object. With
    /// tracing off the metrics are the end-to-end ones, with tracing on the
    /// per-layer ones (0 where this workload leaves a layer idle).
    pub fn result_line(&self) -> String {
        let metric = |m: &Metric, v: f64| {
            (
                m.name.clone(),
                obj([
                    ("value", Value::Num(v)),
                    ("unit", Value::Str(m.unit.clone())),
                ]),
            )
        };
        let metrics: Vec<(String, Value)> = if self.spec.trace {
            manifest()
                .per_layer
                .iter()
                .map(|m| metric(m, self.values.get(&m.name).map_or(0.0, |(v, _)| *v)))
                .collect()
        } else {
            manifest()
                .end_to_end
                .iter()
                .map(|m| metric(m, self.end_to_end(m)))
                .collect()
        };
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }
}

/// Worker threads the libraries' default `Parallelism` uses.
pub fn threads() -> usize {
    pnet_routing::Parallelism::default().threads()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s; 0 where unavailable).
fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; fields resume after ')'.
            let rest = s.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            // utime and stime are fields 14 and 15, i.e. 11 and 12 after
            // the two that precede the ')'.
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something_plausible() {
        assert!(peak_rss_mb() > 0.5);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
