//! Component-count accounting for Table 1 of the paper.
//!
//! The table compares three ways to build an 8,192-host network with equal
//! bisection bandwidth out of the same switch silicon:
//!
//! | Architecture      | Tiers | Hops | Chips | Boxes | Links  |
//! |-------------------|-------|------|-------|-------|--------|
//! | Serial (scale-out)| 4     | 7    | 3,584 | 3,584 | 24.6 k |
//! | Serial chassis    | 2     | 7    | 3,584 | 192   | 8.2 k  |
//! | Parallel 8x       | 2     | 3    | 1,536 | 192   | 8.2 k  |
//!
//! The underlying chip has a native radix of 128 low-speed lanes. Serial
//! designs gang g = 8 lanes per high-speed port, yielding a 16-port
//! high-speed switch; the parallel design uses the chip at its native radix.
//! Link counts exclude host attachment links (identical across designs) and
//! the parallel row counts cable *bundles* (the 8 per-plane fibers between
//! the same endpoints share one trunk, section 6.1 of the paper).

/// The switch silicon every design is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipSpec {
    /// Native number of low-speed lanes on the chip.
    pub native_radix: usize,
    /// Lanes ganged per high-speed port in serial designs.
    pub gearbox: usize,
}

impl ChipSpec {
    /// The Table 1 chip: 128 lanes, ganged 8:1 into 16 high-speed ports.
    pub fn table1() -> Self {
        ChipSpec {
            native_radix: 128,
            gearbox: 8,
        }
    }

    /// High-speed port count in serial configurations.
    pub fn serial_radix(&self) -> usize {
        self.native_radix / self.gearbox
    }

    /// Hosts one 2-tier plane at the native radix `r` connects at most:
    /// `r` leaves of `r/2` hosts each.
    pub fn max_plane_hosts(&self) -> usize {
        self.native_radix * (self.native_radix / 2)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentCount {
    /// Architecture label.
    pub architecture: String,
    /// Tiers of switch *boxes* between host and the top of the fabric.
    pub tiers: usize,
    /// Worst-case switch-chip hops between two hosts.
    pub hops: usize,
    /// Total switch chips.
    pub chips: usize,
    /// Total switch boxes (enclosures).
    pub boxes: usize,
    /// Inter-switch links (cables/bundles); host links excluded.
    pub links: usize,
}

impl ComponentCount {
    /// Format as a Table 1 row.
    pub fn row(&self) -> String {
        format!(
            "{:<20} {:>5} {:>5} {:>6} {:>6} {:>8}",
            self.architecture, self.tiers, self.hops, self.chips, self.boxes, self.links
        )
    }
}

/// Number of folded-Clos levels of radix-r switches needed for `hosts`
/// (2 * (r/2)^L >= hosts).
pub fn clos_levels(hosts: usize, radix: usize) -> usize {
    let half = radix / 2;
    assert!(half >= 2, "radix too small");
    let mut level = 1;
    let mut capacity = 2 * half;
    while capacity < hosts {
        level += 1;
        capacity *= half;
    }
    level
}

/// Serial scale-out fat tree: L tiers of discrete high-speed switches.
///
/// With an exact fit `hosts = 2 (r/2)^L`, an L-level folded Clos uses
/// `(2L - 1) * hosts / r` switches, `(L - 1) * hosts` inter-switch links, and
/// packets traverse `2L - 1` chips end-to-end.
pub fn serial_scale_out(hosts: usize, chip: ChipSpec) -> ComponentCount {
    let r = chip.serial_radix();
    let levels = clos_levels(hosts, r);
    let chips = (2 * levels - 1) * hosts / r;
    ComponentCount {
        architecture: "Serial (scale-out)".into(),
        tiers: levels,
        hops: 2 * levels - 1,
        chips,
        boxes: chips, // one chip per box
        links: (levels - 1) * hosts,
    }
}

/// Serial chassis fat tree: 128-port chassis built internally from the same
/// chips (aggregation chassis: 2-stage, 16 chips; spine chassis: 3-stage
/// non-blocking Clos, 24 chips), as described in section 2.2 of the paper.
pub fn serial_chassis(hosts: usize, chip: ChipSpec) -> ComponentCount {
    let chassis_radix = chip.native_radix; // 128-port chassis
    let half = chassis_radix / 2;
    let agg_boxes = hosts / half; // hosts/64
    let spine_boxes = hosts / chassis_radix; // hosts/128
                                             // Aggregation chassis: 2-stage (blocking) from 16-port chips — 2 stages
                                             // of (R / r) = 8 chips each -> 16 chips.
    let agg_chips_per_box = 2 * (chassis_radix / chip.serial_radix());
    // Spine chassis: 3-stage non-blocking 128-port folded Clos — 3 stages of
    // (R / r) = 8 chips each -> 24 chips.
    let spine_chips_per_box = 3 * (chassis_radix / chip.serial_radix());
    ComponentCount {
        architecture: "Serial chassis".into(),
        tiers: 2,
        // host -> agg (2 chips) -> spine (3 chips) -> agg (2 chips) -> host
        hops: 7,
        chips: agg_boxes * agg_chips_per_box + spine_boxes * spine_chips_per_box,
        boxes: agg_boxes + spine_boxes,
        links: hosts, // one boundary between agg and spine tiers
    }
}

/// Parallel N-way P-Net: each plane is a 2-tier leaf-spine at the chip's
/// native radix; chips of the N planes are co-packaged (N chips per box) and
/// the N per-plane fibers between the same endpoints are bundled into one
/// trunk cable (section 6.1).
pub fn parallel_pnet(hosts: usize, n_planes: usize, chip: ChipSpec) -> ComponentCount {
    let r = chip.native_radix;
    let half = r / 2;
    assert!(
        hosts <= chip.max_plane_hosts(),
        "one 2-tier plane at radix {r} supports at most {} hosts",
        chip.max_plane_hosts()
    );
    let leaves = hosts.div_ceil(half);
    let spines = leaves * half / r; // uplinks / spine radix
    let chips_per_plane = leaves + spines;
    ComponentCount {
        architecture: format!("Parallel {n_planes}x"),
        tiers: 2,
        hops: 3, // leaf -> spine -> leaf
        chips: n_planes * chips_per_plane,
        boxes: chips_per_plane, // N chips co-packaged per box position
        links: leaves * half,   // bundled trunks, one per (leaf, uplink)
    }
}

/// All three Table 1 rows for the paper's 8,192-host exemplar.
pub fn table1() -> Vec<ComponentCount> {
    let chip = ChipSpec::table1();
    vec![
        serial_scale_out(8192, chip),
        serial_chassis(8192, chip),
        parallel_pnet(8192, 8, chip),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clos_levels_examples() {
        assert_eq!(clos_levels(16, 4), 3); // 2*2^3 = 16
        assert_eq!(clos_levels(8192, 16), 4); // 2*8^4 = 8192
        assert_eq!(clos_levels(8192, 128), 2); // 2*64^2 = 8192
        assert_eq!(clos_levels(2, 4), 1);
    }

    #[test]
    fn table1_scale_out_row() {
        let row = serial_scale_out(8192, ChipSpec::table1());
        assert_eq!(row.tiers, 4);
        assert_eq!(row.hops, 7);
        assert_eq!(row.chips, 3584);
        assert_eq!(row.boxes, 3584);
        assert_eq!(row.links, 24_576); // "24.6 k"
    }

    #[test]
    fn table1_chassis_row() {
        let row = serial_chassis(8192, ChipSpec::table1());
        assert_eq!(row.tiers, 2);
        assert_eq!(row.hops, 7);
        assert_eq!(row.chips, 3584); // 128*16 + 64*24
        assert_eq!(row.boxes, 192); // 128 agg + 64 spine
        assert_eq!(row.links, 8192); // "8.2 k"
    }

    #[test]
    fn table1_parallel_row() {
        let row = parallel_pnet(8192, 8, ChipSpec::table1());
        assert_eq!(row.tiers, 2);
        assert_eq!(row.hops, 3);
        assert_eq!(row.chips, 1536); // 8 * (128 + 64)
        assert_eq!(row.boxes, 192);
        assert_eq!(row.links, 8192); // "8.2 k" bundled
    }

    #[test]
    fn chips_saved_by_parallelism() {
        // The paper's headline: parallel needs fewer chips than either serial
        // design at equal bisection bandwidth.
        let rows = table1();
        assert!(rows[2].chips < rows[0].chips);
        assert!(rows[2].chips < rows[1].chips);
        assert!(rows[2].hops < rows[0].hops);
    }

    #[test]
    fn chassis_chip_structure() {
        let chip = ChipSpec::table1();
        assert_eq!(chip.serial_radix(), 16);
        // 128 agg boxes of 16 chips and 64 spine boxes of 24 chips.
        let row = serial_chassis(8192, chip);
        assert_eq!(row.chips, 128 * 16 + 64 * 24);
    }

    #[test]
    fn smaller_parallel_counts_scale_linearly() {
        let chip = ChipSpec::table1();
        let p2 = parallel_pnet(8192, 2, chip);
        let p4 = parallel_pnet(8192, 4, chip);
        assert_eq!(p4.chips, 2 * p2.chips);
        assert_eq!(p4.boxes, p2.boxes); // co-packaging keeps box count fixed
        assert_eq!(p4.links, p2.links); // bundles keep cable count fixed
    }

    #[test]
    fn row_formatting_is_stable() {
        let row = parallel_pnet(8192, 8, ChipSpec::table1());
        let s = row.row();
        assert!(s.contains("Parallel 8x"));
        assert!(s.contains("1536"));
    }
}
