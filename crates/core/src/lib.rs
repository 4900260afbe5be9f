//! # parinda
//!
//! PARINDA — PARtition and INDex Advisor — reproduced from "PARINDA: An
//! Interactive Physical Designer for PostgreSQL" (EDBT 2010) over a
//! from-scratch PostgreSQL-style substrate.
//!
//! The three components of the paper's Figure 1:
//!
//! * **Interactive partitioning/indexing** — [`Parinda::evaluate_design`]:
//!   simulate DBA-chosen what-if indexes/partitions and report per-query
//!   and average workload benefits.
//! * **Automatic index suggestion** — [`Parinda::suggest_indexes`]: ILP
//!   over the INUM cached cost model (or the greedy baseline), under a
//!   storage budget, with the option to materialize the result.
//!   [`Parinda::advise`] takes the full [`AdviseRequest`] (weights,
//!   incremental re-advice, pins and bans).
//! * **Automatic partition suggestion** — [`Parinda::suggest_partitions`]:
//!   AutoPart with automatic query rewriting.
//!
//! Plus the demo's verification path ([`verify_whatif_index`]): simulate a
//! feature, then actually build it and compare plans and sizes.
//!
//! # Example
//!
//! ```
//! use parinda::{Design, Parinda, WhatIfIndex};
//!
//! // a schema from DDL (or build a Catalog programmatically)
//! let session = Parinda::from_ddl(
//!     "CREATE TABLE obs (id BIGINT NOT NULL, ra DOUBLE PRECISION NOT NULL,
//!                        PRIMARY KEY (id)) ROWS 100000;",
//! )?;
//!
//! // what would an index on `ra` buy this query?
//! let workload = vec![parinda::parse_select(
//!     "SELECT id FROM obs WHERE ra BETWEEN 10.0 AND 10.5",
//! )?];
//! let design = Design::new().with_index(WhatIfIndex::new("w_ra", "obs", &["ra"]));
//! let (report, _) = session.evaluate_design(&workload, &design)?;
//! assert!(report.per_query[0].cost_after <= report.per_query[0].cost_before);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![allow(missing_docs)]

pub mod console;
pub mod report;
pub mod session;
pub mod verify;

pub use console::{is_state_mutating, parse_command, Command, Console, ConsoleReply, HELP};
pub use report::{BenefitReport, QueryBenefit};
pub use session::{
    guard, AdviseRequest, DropSuggestion, IndexSuggestion, Parinda, ParindaError,
    PartitionSuggestionReport, SelectionMethod, SessionState, SharedEngine, SuggestedIndex,
    SuggestedPartition,
};
pub use verify::{verify_whatif_index, Verification};

// Re-export the vocabulary types users need at the API surface.
pub use parinda_advisor::{AutoPartConfig, IlpOptions};
pub use parinda_parallel::{Budget, BudgetReport, CancelToken, Parallelism, THREADS_ENV};
pub use parinda_trace::{Counter, Trace, TraceReport};
pub use parinda_catalog::{Catalog, Column, Datum, SqlType};
pub use parinda_sql::{parse_select, Select};
pub use parinda_storage::Database;
pub use parinda_whatif::{Design, WhatIfIndex, WhatIfPartition};
