//! # pnet-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md for the index). This library holds the shared scaffolding:
//! argument parsing, table/CSV output, and the four-network comparison
//! setups. Performance is measured elsewhere, by the standalone package in
//! `benchmark/`.

pub mod args;
pub mod report;
pub mod setups;

pub use args::Args;
pub use report::{banner, f3, human_bytes, min_index_total, Table};
