//! Deployment accounting: transceivers, fibers, patch panels, and power
//! (section 6.1 of the paper).
//!
//! The paper argues that P-Nets' "more boxes and cables" concern is solved
//! by modern deployment techniques: cable bundles collapse the N per-plane
//! fibers between the same endpoints into one trunk, patch panels (and
//! optical circuit switches) centralize the wiring so heterogeneity lives
//! in one room, and all-optical cores eliminate in-fabric transceivers —
//! "a key scaling mechanism into Terabit ethernet, as high-speed packet
//! switches and transceivers consume extremely high power".
//!
//! This module provides a first-order cost/power model over the
//! [`crate::components::ComponentCount`] accounting. The absolute numbers
//! are representative catalog values (documented on [`PowerModel`]); the
//! point — as in the paper — is the *relative* comparison across designs.

use crate::components::ComponentCount;

/// How the fabric-side wiring is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentStyle {
    /// Every inter-switch cable is a discrete fiber with a transceiver on
    /// each end (the traditional scale-out deployment).
    DiscreteFibers,
    /// Long-run fibers terminate on central patch panels; wiring changes
    /// are patch-panel operations. Same transceiver count, far fewer
    /// distinct cable runs (trunks), and heterogeneity is confined to the
    /// panel room (section 6.2).
    PatchPanel,
    /// The core tier is an optical circuit switch (Calient-style) or
    /// pre-etched grating: core *chips* and their transceivers disappear;
    /// light goes ToR -> OCS -> ToR. Only applicable to 2-tier parallel
    /// planes (the paper's P-Net deployment).
    OpticalCircuitSwitch,
}

/// First-order power/cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Watts per switch chip (merchant silicon, ~12.8 Tb/s class).
    pub chip_w: f64,
    /// Watts per optical transceiver (100G DR/FR class).
    pub transceiver_w: f64,
    /// Watts of ancillary hardware (CPU, fans, PSU losses) per switch box.
    pub box_overhead_w: f64,
    /// Watts per OCS port (micro-mirror drive electronics; near-zero
    /// compared to packet switching).
    pub ocs_port_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            chip_w: 350.0,
            transceiver_w: 4.5,
            box_overhead_w: 150.0,
            ocs_port_w: 0.25,
        }
    }
}

/// Deployment summary for one architecture row.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSummary {
    pub style: DeploymentStyle,
    /// Optical transceivers on fabric links.
    pub transceivers: usize,
    /// Distinct physical cable runs an installer must pull (trunks count
    /// once).
    pub cable_runs: usize,
    /// Patch-panel (or OCS) ports, if a central panel is used.
    pub panel_ports: usize,
    /// Switch chips actually deployed (OCS removes the spine tier).
    pub chips: usize,
    /// Total power in kilowatts.
    pub power_kw: f64,
}

/// Compute the deployment summary of an architecture under a wiring style.
///
/// `spine_fraction` is the fraction of chips that form the top tier (the
/// candidates an OCS replaces); for the Table 1 parallel design it is
/// 64/192 = 1/3, for serial designs the OCS style is not applicable and the
/// fraction is ignored.
pub fn deployment(
    row: &ComponentCount,
    style: DeploymentStyle,
    spine_fraction: f64,
    model: &PowerModel,
) -> DeploymentSummary {
    assert!((0.0..=1.0).contains(&spine_fraction));
    let base_transceivers = row.links * 2;
    match style {
        DeploymentStyle::DiscreteFibers => DeploymentSummary {
            style,
            transceivers: base_transceivers,
            cable_runs: row.links,
            panel_ports: 0,
            chips: row.chips,
            power_kw: (row.chips as f64 * model.chip_w
                + base_transceivers as f64 * model.transceiver_w
                + row.boxes as f64 * model.box_overhead_w)
                / 1e3,
        },
        DeploymentStyle::PatchPanel => {
            // Each cable passes through the panel: one run per side of the
            // panel collapses into trunks (we credit a 4:1 trunking factor,
            // conservative versus the paper's per-plane bundling), and the
            // panel needs one port per cable end.
            let cable_runs = row.links.div_ceil(4) * 2;
            DeploymentSummary {
                style,
                transceivers: base_transceivers,
                cable_runs,
                panel_ports: row.links * 2,
                chips: row.chips,
                power_kw: (row.chips as f64 * model.chip_w
                    + base_transceivers as f64 * model.transceiver_w
                    + row.boxes as f64 * model.box_overhead_w)
                    / 1e3,
            }
        }
        DeploymentStyle::OpticalCircuitSwitch => {
            // The spine tier becomes OCS ports: its chips, boxes and the
            // transceivers on the spine side of every uplink disappear.
            let spine_chips = (row.chips as f64 * spine_fraction).round() as usize;
            let chips = row.chips - spine_chips;
            let transceivers = row.links; // ToR-side only
            let ocs_ports = row.links;
            let boxes = (row.boxes as f64 * (1.0 - spine_fraction)).round() as usize;
            DeploymentSummary {
                style,
                transceivers,
                cable_runs: row.links.div_ceil(4) * 2,
                panel_ports: ocs_ports,
                chips,
                power_kw: (chips as f64 * model.chip_w
                    + transceivers as f64 * model.transceiver_w
                    + boxes as f64 * model.box_overhead_w
                    + ocs_ports as f64 * model.ocs_port_w)
                    / 1e3,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{parallel_pnet, serial_chassis, serial_scale_out, ChipSpec};

    #[test]
    fn ocs_saves_chips_and_transceivers() {
        let row = parallel_pnet(8192, 8, ChipSpec::table1());
        let m = PowerModel::default();
        let fibers = deployment(&row, DeploymentStyle::DiscreteFibers, 1.0 / 3.0, &m);
        let ocs = deployment(&row, DeploymentStyle::OpticalCircuitSwitch, 1.0 / 3.0, &m);
        assert!(ocs.chips < fibers.chips);
        assert_eq!(ocs.transceivers, fibers.transceivers / 2);
        assert!(ocs.power_kw < fibers.power_kw);
    }

    #[test]
    fn parallel_with_ocs_beats_serial_designs_on_power() {
        let chip = ChipSpec::table1();
        let m = PowerModel::default();
        let scale_out = deployment(
            &serial_scale_out(8192, chip),
            DeploymentStyle::DiscreteFibers,
            0.0,
            &m,
        );
        let chassis = deployment(
            &serial_chassis(8192, chip),
            DeploymentStyle::DiscreteFibers,
            0.0,
            &m,
        );
        let pnet = deployment(
            &parallel_pnet(8192, 8, chip),
            DeploymentStyle::OpticalCircuitSwitch,
            1.0 / 3.0,
            &m,
        );
        assert!(pnet.power_kw < chassis.power_kw);
        assert!(pnet.power_kw < scale_out.power_kw);
    }

    #[test]
    fn patch_panel_reduces_cable_runs_only() {
        let row = serial_chassis(8192, ChipSpec::table1());
        let m = PowerModel::default();
        let fibers = deployment(&row, DeploymentStyle::DiscreteFibers, 0.0, &m);
        let panel = deployment(&row, DeploymentStyle::PatchPanel, 0.0, &m);
        assert!(panel.cable_runs < fibers.cable_runs);
        assert_eq!(panel.transceivers, fibers.transceivers);
        assert_eq!(panel.power_kw, fibers.power_kw);
        assert!(panel.panel_ports > 0);
    }
}
