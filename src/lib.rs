//! # pnet — Parallel Dataplane Networks
//!
//! A Rust reproduction of *"Scaling beyond packet switch limits with
//! multiple dataplanes"* (Guo, Mellette, Snoeren, Porter — CoNEXT 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`topology`] — fat trees, chassis component models, Jellyfish and
//!   Xpander expanders, multi-plane assembly, failure injection;
//! * [`routing`] — BFS, and ECMP and KSP path computation by length tier,
//!   with plane-aware route tables;
//! * [`flowsim`] — flow-level throughput solvers (max concurrent flow,
//!   max-min waterfilling) replacing the paper's LP solver;
//! * [`htsim`] — a packet-level discrete-event simulator with TCP and
//!   MPTCP (the paper's htsim methodology);
//! * [`workloads`] — synthetic traffic matrices, published-trace flow-size
//!   CDFs, and the Hadoop sort job;
//! * [`core`] — the paper's contribution: the P-Net host stack with
//!   plane/path selection policies and pseudo interfaces;
//! * [`planner`] — throughput-planner-as-a-service: concurrent what-if
//!   queries (admission, failure what-ifs, subflow sweeps) over
//!   epoch-snapshotted fabric generations with memoized solves.
//!
//! See `examples/` for runnable walkthroughs and `crates/bench/src/bin/`
//! for the per-figure experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use pnet::core::{PNetSpec, PathPolicy, TopologyKind};
//! use pnet::topology::{HostId, NetworkClass};
//!
//! // A 4-plane heterogeneous P-Net over Jellyfish planes.
//! let pnet = PNetSpec::new(
//!     TopologyKind::Jellyfish { n_tors: 16, degree: 4, hosts_per_tor: 2 },
//!     NetworkClass::ParallelHeterogeneous,
//!     4,
//!     7,
//! )
//! .build();
//!
//! // The host stack picks plane(s) and path(s) per flow.
//! let mut selector = pnet.selector(PathPolicy::paper_default(32));
//! let (routes, _cc) = selector.select(&pnet.net, HostId(0), HostId(31), 1, 1_500);
//! assert_eq!(routes.len(), 1); // small RPC: single path, lowest-hop plane
//! ```

pub use pnet_core as core;
pub use pnet_flowsim as flowsim;
pub use pnet_htsim as htsim;
pub use pnet_planner as planner;
pub use pnet_routing as routing;
pub use pnet_topology as topology;
pub use pnet_workloads as workloads;
