//! # pnet-workloads
//!
//! Workload generation for the P-Net evaluation:
//!
//! * [`tm`] — synthetic traffic matrices (all-to-all, permutation, random
//!   pairs);
//! * [`sizes`] — empirical flow-size CDF sampling;
//! * [`traces`] — the five published datacenter traces of Figure 13a
//!   (websearch \[6\], datamining \[22\], Facebook webserver/cache/hadoop \[35\]);
//! * [`hadoop`] — the 3-stage Hadoop sort job of section 5.2.2.
//!
//! ## Example
//!
//! ```
//! use pnet_workloads::{tm, Trace};
//! use rand::SeedableRng;
//!
//! let perm = tm::random_permutation(16, 42);
//! assert!(perm.iter().enumerate().all(|(i, &j)| i != j));
//!
//! let cdf = Trace::Websearch.cdf();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let size = cdf.sample(&mut rng);
//! assert!(size >= 1_000);
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

pub mod arrivals;
pub mod hadoop;
pub mod sizes;
pub mod tm;
pub mod traces;

pub use arrivals::PoissonArrivals;
pub use hadoop::{JobStage, JobTransfer, SortJob};
pub use sizes::EmpiricalCdf;
pub use traces::Trace;
