//! Figure 12: per-worker completion time of each stage of a Hadoop-style
//! sort job (read input / shuffle / write output), single-path routing.
//!
//! Paper setup: 250-host cluster, 100 GB sorted by 32 mappers and 32
//! reducers, 128 MB blocks, 4 concurrent blocks per worker. Paper shape:
//! in the sparse read/write stages parallel networks (especially
//! heterogeneous) cut worker completion times; in the dense shuffle the
//! parallel networks approach serial high-bw, with no extra heterogeneous
//! advantage (collisions on the short paths).
//!
//! Scale note: the default job is the paper's layout scaled to 2 GB total
//! (`--scale 1.0` for the full 100 GB — slow). The min-RTO defaults to 1 ms
//! because the default job is ~50x smaller than the paper's; use
//! `--rto-us 10000 --scale 1.0` for the paper's exact configuration.

use crate::{banner, human_bytes, setups, Args, Error, Experiment, Table, CSV, SEED};
use pnet_core::PNetSpec;
use pnet_htsim::apps::{ShuffleDriver, Stage, Transfer};
use pnet_htsim::{metrics, run as run_sim};
use pnet_topology::HostId;
use pnet_workloads::SortJob;
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "fig12",
    about: "Figure 12: per-worker stage completion times of a Hadoop-style sort job",
    params: &[
        ("tors", "50", "ToR switches per plane"),
        ("degree", "7", "fabric ports per ToR"),
        ("hosts-per-tor", "5", "hosts per ToR"),
        ("planes", "4", "dataplanes N"),
        ("scale", "0.02", "job size relative to the paper's 100 GB"),
        ("rto-us", "1000", "TCP minimum RTO in microseconds"),
        SEED,
        CSV,
    ],
    run,
};

/// Per-stage, per-worker completion times (us) of `job` on `spec`.
fn run_job(spec: PNetSpec, job: &SortJob, rto_us: u64) -> Vec<Vec<f64>> {
    let (_, stages) = job.stages();
    let sim_stages: Vec<Stage> = stages
        .iter()
        .map(|s| Stage {
            name: s.name.to_string(),
            transfers: s
                .transfers
                .iter()
                .map(|t| Transfer {
                    src: HostId(t.src as u32),
                    dst: HostId(t.dst as u32),
                    size_bytes: t.size_bytes,
                    worker: t.worker,
                })
                .collect(),
        })
        .collect();
    let policy = setups::single_path_policy(spec.class);
    let cfg = setups::config_with_rto_us(rto_us);
    setups::simulate(spec, policy, cfg, |sim, factory, _| {
        let mut driver =
            ShuffleDriver::start(sim, sim_stages, factory, job.concurrency, job.n_workers());
        run_sim(sim, &mut driver, None);
        assert!(driver.done(), "job did not finish");
        driver.results
    })
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let base = setups::jellyfish_spec(args)?;
    let scale: f64 = args.get("scale")?;
    let rto_us: u64 = args.get("rto-us")?;
    let csv = args.has("csv");

    let mut job = SortJob::paper_default(base.seed).scaled(scale);
    job.n_hosts = base.n_hosts();

    banner(
        out,
        "Figure 12 — Hadoop sort per-worker stage completion times",
        &format!(
            "{} hosts, {} planes; {} total, {} blocks, {}x{} workers, concurrency {}",
            job.n_hosts,
            base.n_planes,
            human_bytes(job.total_bytes),
            human_bytes(job.block_bytes),
            job.n_mappers,
            job.n_reducers,
            job.concurrency
        ),
    )?;

    let classes = setups::classes_for(base.topology);
    let per_class = setups::per_class(base, |spec| run_job(spec, &job, rto_us));

    let stage_names = ["read input", "shuffle", "write output"];
    for (si, name) in stage_names.iter().enumerate() {
        writeln!(
            out,
            "\n--- stage {}: {name} (per-worker completion, ms) ---",
            si + 1
        )?;
        let mut table = Table::new(&["network", "min", "median", "p90", "max"], csv);
        for (class, results) in classes.iter().zip(&per_class) {
            let ms: Vec<f64> = results[si]
                .iter()
                .filter(|&&t| t > 0.0)
                .map(|t| t / 1e3)
                .collect();
            let s = metrics::Summary::of(&ms);
            let f2 = |x: f64| format!("{x:.2}");
            table.row(&[
                &class.label(),
                &f2(s.min),
                &f2(s.median),
                &f2(s.p90),
                &f2(s.max),
            ]);
        }
        table.print(out)?;
    }
    writeln!(
        out,
        "\npaper: read/write (sparse) — parallel beats serial-low, hetero lowest; \
         shuffle (dense) — parallel tracks serial high-bw, hetero adds nothing"
    )?;
    Ok(())
}
