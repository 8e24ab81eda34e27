//! # pnet-htsim
//!
//! A discrete-event, packet-granular network simulator in the style of
//! `htsim` (Handley et al., SIGCOMM'17 \[23\]) — the packet-level evaluation
//! substrate of the P-Net paper.
//!
//! Components:
//!
//! * [`Simulator`] — event engine: one drop-tail queue per directed link,
//!   source-routed packets, picosecond clock, deterministic event ordering;
//! * [`tcp`] — packet-level TCP (NewReno) and MPTCP (RFC 6356 LIA) with the
//!   paper's datacenter tuning (10 ms minimum RTO);
//! * [`apps`] — workload drivers: one-shot flow batches, closed-loop
//!   sources, RPC ping-pong, and staged shuffle jobs;
//! * [`metrics`] — FCT percentiles, means, summaries.
//!
//! A finished flow's [`FlowRecord`] goes to the [`Driver`] by value and has
//! one owner: the driver keeps it (the open- and closed-loop drivers do),
//! drops it after reading (RPC, shuffle), or, as the default body does,
//! hands it back to [`Simulator::records`].
//!
//! ## Example
//!
//! ```
//! use pnet_htsim::{run_to_completion, CcAlgo, FlowSpec, SimConfig, Simulator};
//! use pnet_routing::{host_route, RouteAlgo, Router};
//! use pnet_topology::{assemble_homogeneous, FatTree, HostId, LinkProfile, PlaneId};
//!
//! let net = assemble_homogeneous(&FatTree::three_tier(4), 1, &LinkProfile::paper_default());
//! let router = Router::new(&net, RouteAlgo::Ksp { k: 1 });
//! let path = router
//!     .paths_in_plane(PlaneId(0), net.rack_of_host(HostId(0)), net.rack_of_host(HostId(15)));
//! let route = host_route(&net, HostId(0), HostId(15), path.get(0)).unwrap();
//!
//! let mut sim = Simulator::new(&net, SimConfig::default());
//! let id = sim.start_flow(FlowSpec {
//!     src: HostId(0),
//!     dst: HostId(15),
//!     size_bytes: 150_000,
//!     routes: vec![route],
//!     cc: CcAlgo::Reno,
//!     owner_tag: 0,
//! });
//! run_to_completion(&mut sim);
//! // No driver kept the record, so the simulator did.
//! assert_eq!((sim.records[0].conn, sim.records[0].size_bytes), (id, 150_000));
//! ```

// Test modules are exempt from the typed determinism lints (DESIGN.md "Static analysis &
// determinism contract"): they keep hash sets, exact float asserts and catch-all arms.
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::float_cmp,
        clippy::wildcard_enum_match_arm
    )
)]
// Time, byte counts and ids are u64/u32 arithmetic: a narrowing `as` silently truncates at scale.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod apps;
pub mod event;
pub mod metrics;
pub mod packet;
pub mod queue;
pub mod sim;
pub mod tcp;
pub mod telemetry;
pub mod time;

pub use packet::{ConnId, Packet, PacketArena, PacketId, ACK_BYTES, MTU_BYTES};
pub use sim::{
    run, run_to_completion, ConservationLedger, Driver, FlowRecord, FlowSpec, NullDriver,
    QueueStats, SimConfig, Simulator,
};
pub use tcp::{CcAlgo, TcpConfig};
pub use telemetry::{EventMask, Telemetry, TelemetryConfig, TraceRecord};
pub use time::{serialization_ps, transfer_us_f64, SimTime};
