//! # parinda-advisor
//!
//! The automatic design components of PARINDA:
//!
//! * candidate index generation by workload analysis (§3.4),
//! * ILP-based index selection over the INUM cached cost model (§3.4),
//! * the greedy baseline the paper contrasts against,
//! * AutoPart vertical partitioning with atomic/composite fragments and
//!   replication constraints (§3.3),
//! * the automatic query rewriter for partitioned schemas (§3.3),
//! * the one what-if costing path for hypothetical designs, rewrite-aware
//!   ([`WhatIfDesign`]).

#![allow(missing_docs)]

pub mod autopart;
pub mod candidates;
pub mod fragments;
pub mod greedy_index;
pub mod ilp_index;
pub mod rewrite;
pub mod whatif_design;

pub use autopart::{suggest_partitions, AdvisorError, AutoPartConfig, PartitionSuggestion};
pub use candidates::{generate_candidates, CandidateLimits};
pub use fragments::{atomic_fragments, replication_overhead, Fragment};
pub use greedy_index::{select_indexes_greedy, select_indexes_greedy_static};
pub use ilp_index::{
    index_update_cost, select_indexes_ilp, IlpOptions, IndexSelection, SolverConstraints,
};
pub use rewrite::{rewrite_select, NamedFragment, PartitionDesign, RewriteError};
pub use whatif_design::WhatIfDesign;
