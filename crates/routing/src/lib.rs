//! # pnet-routing
//!
//! Path computation for P-Nets: equal-cost and K-shortest path enumeration
//! by length tier, a caching [`Router`] that merges path sets across
//! dataplanes, and the rules a flow's routes are chosen by ([`choice`]).
//!
//! The forwarding model follows the paper exactly: a path lives entirely in
//! one plane (packets never cross planes mid-flight), hosts choose the
//! plane(s) and path(s) per flow, and multipath transport spreads subflows
//! over the K globally shortest paths across all planes.
//!
//! ## Example
//!
//! ```
//! use pnet_routing::{Router, RouteAlgo};
//! use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile, RackId};
//!
//! let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
//! let router = Router::new(&net, RouteAlgo::Ksp { k: 4 });
//! let paths = router.k_best_across_planes(RackId(0), RackId(7), 8);
//! assert_eq!(paths.len(), 8);
//! assert!(paths.iter().all(|p| p.switch_hops() == 5)); // 4+4 equal-cost across 2 planes
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

#[cfg(test)]
mod bfs;
pub mod choice;
pub mod ecmp;
pub mod exec;
pub mod fnv;
pub mod path;
pub mod plane_graph;
pub mod router;
mod scratch;
mod tier_search;

pub use choice::{subflow_width, Flow};
pub use ecmp::{flow_hash, hash_index, hash_plane};
pub use exec::Parallelism;
pub use fnv::Fnv;
pub use path::{host_route, tie_rotated, Path, PathRef, PathSet, PlanePaths, MAX_K};
pub use plane_graph::PlaneGraph;
pub use router::{DeltaStats, RouteAlgo, Router};
