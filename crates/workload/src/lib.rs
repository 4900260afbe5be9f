//! # parinda-workload
//!
//! The demonstration workload substrate: a synthetic SDSS DR4-like schema
//! (wide PhotoObj, SpecObj, Neighbors, Field, Photoz), the 30 prototypical
//! queries the demo uses, deterministic data/statistics generators at both
//! paper scale (statistics only) and laptop scale (materialized rows), a
//! workload-file parser with per-statement weights, a seeded random
//! query generator for scaling sweeps, and fingerprint-keyed workload
//! compression that clusters equivalent statements into weighted
//! templates.

#![allow(missing_docs)]

pub mod compress;
pub mod datagen;
pub mod generator;
pub mod parser;
pub mod retail;
pub mod sdss;

pub use compress::{compress_workload, fingerprint, CompressedWorkload, QueryTemplate};
pub use datagen::{generate_and_load, synthesize_stats};
pub use generator::{generate_queries, generate_retail_stream, generate_sdss_stream};
pub use parser::{parse_workload, Workload, WorkloadEntry};
pub use retail::{retail_catalog, retail_load, retail_workload, retail_workload_sql, RetailTables};
pub use sdss::{sdss_catalog, sdss_workload, sdss_workload_sql, SdssScale, SdssTables};
