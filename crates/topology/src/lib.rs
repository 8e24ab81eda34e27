//! # pnet-topology
//!
//! Datacenter network topologies for the P-Net reproduction ("Scaling beyond
//! packet switch limits with multiple dataplanes", CoNEXT 2022).
//!
//! The crate provides:
//!
//! * an arena [`Network`] graph shared by the routing, flow-level, and
//!   packet-level layers of the workspace;
//! * plane builders: [`FatTree`] (3-tier k-ary and 2-tier leaf-spine),
//!   [`Jellyfish`] random regular graphs, and [`Xpander`] 2-lift expanders;
//! * P-Net assembly ([`assemble`], [`assemble_homogeneous`]) wiring hosts to
//!   N disjoint dataplanes, plus the four evaluation network classes of the
//!   paper ([`parallel::NetworkClass`]);
//! * Table 1 component accounting ([`components`]);
//! * link-failure injection ([`failures`]).
//!
//! ## Example
//!
//! ```
//! use pnet_topology::{assemble, Jellyfish, LinkProfile, PlaneBuilder};
//!
//! // A 4-plane heterogeneous P-Net: four differently-seeded Jellyfish planes.
//! let planes: Vec<Jellyfish> = (0..4).map(|s| Jellyfish::new(16, 4, 2, s)).collect();
//! let refs: Vec<&dyn PlaneBuilder> = planes.iter().map(|p| p as &dyn PlaneBuilder).collect();
//! let net = assemble(&refs, &LinkProfile::paper_default());
//! assert_eq!(net.n_planes(), 4);
//! assert_eq!(net.n_hosts(), 32);
//! for p in net.planes() {
//!     assert!(net.plane_connects_all_hosts(p));
//! }
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

pub mod builder;
pub mod churn;
pub mod components;
pub mod deployment;
pub mod failures;
pub mod fattree;
pub mod graph;
pub mod ids;
pub mod jellyfish;
pub mod parallel;
pub mod profile;
pub mod xpander;

pub use builder::{assemble, assemble_homogeneous, assemble_with_profiles, PlaneBuilder};
pub use churn::{ChurnEvent, ChurnSchedule, LinkDelta};
pub use fattree::{FatTree, FatTreeShape};
pub use graph::{gbps, micros_ps, nanos_ps, Link, Network, Node, NodeKind};
pub use ids::{HostId, LinkId, NodeId, PlaneId, RackId};
pub use jellyfish::{expand_rack, Jellyfish};
pub use parallel::NetworkClass;
pub use profile::LinkProfile;
pub use xpander::Xpander;
