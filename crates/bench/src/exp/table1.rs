//! Table 1: component counts for an 8,192-host network built three ways —
//! serial scale-out fat tree, serial chassis fat tree, and an 8x parallel
//! P-Net — at equal bisection bandwidth.

use crate::{banner, setups, Args, Error, Experiment, Table, CSV};
use pnet_topology::components::{parallel_pnet, serial_chassis, serial_scale_out, ChipSpec};
use pnet_topology::deployment::{deployment, DeploymentStyle, PowerModel};
use std::io::Write;

pub const EXPERIMENT: Experiment = Experiment {
    name: "table1",
    about: "Table 1: component counts of an 8,192-host network built three ways",
    params: &[
        ("hosts", "8192", "hosts to connect"),
        ("planes", "8", "dataplanes of the parallel design"),
        CSV,
    ],
    run,
};

/// The three architectures of Table 1 side by side (also `pnet components`).
pub fn component_table(hosts: usize, planes: usize, csv: bool) -> Table {
    let chip = ChipSpec::table1();
    let header = ["Architecture", "Tiers", "Hops", "Chips", "Boxes", "Links"];
    let mut table = Table::new(&header, csv);
    for r in [
        serial_scale_out(hosts, chip),
        serial_chassis(hosts, chip),
        parallel_pnet(hosts, planes, chip),
    ] {
        table.row(&[
            &r.architecture,
            &r.tiers,
            &r.hops,
            &r.chips,
            &r.boxes,
            &r.links,
        ]);
    }
    table
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Error> {
    let (hosts, planes) = setups::component_hosts_and_planes(args, ChipSpec::table1())?;
    let csv = args.has("csv");

    banner(
        out,
        "Table 1 — component counts",
        &format!(
            "{hosts} hosts, equal bisection bandwidth; chip native radix 128, serial gearing 8:1"
        ),
    )?;
    component_table(hosts, planes, csv).print(out)?;
    writeln!(
        out,
        "\n\
         paper row 1: Serial (scale-out)  4  7  3584  3584  24.6k\n\
         paper row 2: Serial chassis      2  7  3584   192   8.2k\n\
         paper row 3: Parallel 8x         2  3  1536   192   8.2k\n"
    )?;

    // Sweep: chips and hops versus the number of planes at fixed bisection.
    banner(
        out,
        "Extension — parallel design versus plane count",
        "chips scale linearly with N; boxes and (bundled) cables stay fixed",
    )?;
    let chip = ChipSpec::table1();
    let mut sweep = Table::new(&["Planes", "Chips", "Boxes", "Links", "Hops"], csv);
    for n in [1usize, 2, 4, 8] {
        let row = parallel_pnet(hosts, n, chip);
        sweep.row(&[&n, &row.chips, &row.boxes, &row.links, &row.hops]);
    }
    sweep.print(out)?;

    // Deployment extension (section 6.1): transceivers, cable runs and power
    // under the three wiring styles.
    writeln!(out)?;
    banner(
        out,
        "Extension — deployment styles (section 6.1)",
        "first-order model: 350W/chip, 4.5W/transceiver, 150W/box, 0.25W/OCS port",
    )?;
    let model = PowerModel::default();
    let header = [
        "Architecture",
        "Wiring",
        "Chips",
        "Transceivers",
        "CableRuns",
        "PanelPorts",
        "Power(kW)",
    ];
    let mut dep = Table::new(&header, csv);
    let scale_out = serial_scale_out(hosts, chip);
    let chassis = serial_chassis(hosts, chip);
    let pnet = parallel_pnet(hosts, planes, chip);
    for (row, style, frac) in [
        (&scale_out, DeploymentStyle::DiscreteFibers, 0.0),
        (&chassis, DeploymentStyle::DiscreteFibers, 0.0),
        (&pnet, DeploymentStyle::DiscreteFibers, 1.0 / 3.0),
        (&pnet, DeploymentStyle::PatchPanel, 1.0 / 3.0),
        (&pnet, DeploymentStyle::OpticalCircuitSwitch, 1.0 / 3.0),
    ] {
        let d = deployment(row, style, frac, &model);
        dep.row(&[
            &row.architecture,
            &format!("{style:?}"),
            &d.chips,
            &d.transceivers,
            &d.cable_runs,
            &d.panel_ports,
            &format!("{:.1}", d.power_kw),
        ]);
    }
    dep.print(out)?;
    writeln!(
        out,
        "\npaper section 6.1: patch panels cut wiring complexity; an OCS core removes\n\
         the spine chips and their transceivers — the parallel design's power win"
    )?;
    Ok(())
}
