//! # pnet-core
//!
//! The paper's primary contribution as a library: **Parallel Dataplane
//! Networks** (P-Nets) with host-level plane/path selection.
//!
//! A P-Net connects every end host to N disjoint forwarding planes; packets
//! never cross planes in flight, so *all* multiplexing intelligence lives at
//! the host. This crate provides that host stack:
//!
//! * [`PNetSpec`] / [`PNet`] — build any of the paper's four comparison
//!   networks (serial low/high bandwidth, parallel homogeneous,
//!   parallel heterogeneous) over fat-tree, Jellyfish, or Xpander planes;
//! * [`PathPolicy`] / [`PathSelector`] — per-flow plane/path selection:
//!   ECMP hashing, round-robin, shortest-plane (low latency), K-shortest
//!   multipath (high throughput), and the size-threshold composite the
//!   paper recommends;
//! * [`TrafficClass`] — the application-facing pseudo interfaces;
//! * [`HostStack`] — per-plane IP addressing and link-status failure
//!   masking;
//! * [`analysis`] — hop-count/resiliency analytics behind Figures 10 and 14.
//!
//! ## Example: build a 4-plane heterogeneous P-Net and pick paths
//!
//! ```
//! use pnet_core::{PNet, PNetSpec, PathPolicy, TopologyKind};
//! use pnet_topology::{HostId, NetworkClass};
//!
//! let spec = PNetSpec::new(
//!     TopologyKind::Jellyfish { n_tors: 16, degree: 4, hosts_per_tor: 2 },
//!     NetworkClass::ParallelHeterogeneous,
//!     4,
//!     42,
//! );
//! let pnet: PNet = spec.build();
//! let mut selector = pnet.selector(PathPolicy::paper_default(32));
//!
//! // A small RPC goes single-path on the lowest-hop plane...
//! let (routes, _cc) = selector.select(&pnet.net, HostId(0), HostId(31), 1, 1_500);
//! assert_eq!(routes.len(), 1);
//!
//! // ...a bulk transfer gets MPTCP subflows across the planes.
//! let (routes, _cc) = selector.select(&pnet.net, HostId(0), HostId(31), 2, 2_000_000_000);
//! assert!(routes.len() > 1);
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

pub mod adaptive;
pub mod analysis;
pub mod hoststack;
pub mod interfaces;
pub mod pnet;
pub mod policy;

pub use adaptive::AdaptiveBalancer;
pub use hoststack::{HostStack, PlaneAddr};
pub use interfaces::{subflows_for, TrafficClass};
pub use pnet::{PNet, PNetSpec, TopologyKind};
pub use policy::{PathPolicy, PathSelector};
