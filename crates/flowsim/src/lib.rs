//! # pnet-flowsim
//!
//! Flow-level throughput solvers — this workspace's substitute for the LP
//! solver (Gurobi) used by the paper's artifact. Two engines:
//!
//! * [`mcf`] — max concurrent flow via the Garg–Könemann / Fleischer
//!   multiplicative-weights (1−ε)-approximation, with explicit path sets
//!   (ECMP / K-shortest-path routes) or free per-plane routing;
//! * [`maxmin`] — exact progressive-filling max-min fairness for flows
//!   pinned to single paths.
//!
//! [`throughput`] wraps both into the exact quantities plotted in Figures 6,
//! 7, and 8. A solve has one fallible entry, [`mcf::try_solve`] cold and
//! [`mcf::try_solve_warm`] warm; both return a typed [`McfError`].
//!
//! ## Example
//!
//! ```
//! use pnet_flowsim::{commodity, throughput};
//! use pnet_topology::{assemble_homogeneous, FatTree, LinkProfile};
//!
//! let net = assemble_homogeneous(&FatTree::three_tier(4), 2, &LinkProfile::paper_default());
//! let perm: Vec<usize> = (0..16).map(|i| (i + 8) % 16).collect();
//! let commodities = commodity::permutation(&perm);
//! let (total, lambda) = throughput::ksp_multipath_throughput(&net, &commodities, 16, 0.1)?;
//! assert!(total > 0.0 && lambda > 0.0);
//! # Ok::<(), pnet_flowsim::McfError>(())
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

pub mod commodity;
pub mod maxmin;
pub mod mcf;
pub mod throughput;

pub use commodity::Commodity;
pub use mcf::{link_capacities, Candidates, McfError, McfSolution, PathMode};
