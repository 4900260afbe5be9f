//! The PARINDA tool session: catalog + (optionally) materialized data,
//! exposing the three components of Figure 1.
//!
//! Since the server refactor the session is split in two layers:
//!
//! * [`EngineCore`] (private) — catalog, storage, cost parameters and the
//!   engine-wide INUM plan cache, held behind an `Arc` and treated as
//!   immutable while shared. [`SharedEngine`] is the public handle that
//!   mints sessions over one core.
//! * [`SessionState`] — everything one session may change without another
//!   session noticing: thread policy, budgets, cancellation token, trace.
//!
//! A session that mutates metadata (DDL, materialization) transparently
//! *privatizes* its core: copy-on-write via [`Arc::make_mut`], a fresh
//! plan cache (cached plans are functions of the metadata being changed),
//! and a new generation id. Other sessions keep the old core untouched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parinda_advisor::{
    generate_candidates, select_indexes_greedy, select_indexes_ilp, suggest_partitions,
    AutoPartConfig, CandidateLimits, IlpOptions, PartitionDesign, SolverConstraints, WhatIfDesign,
};
use parinda_catalog::{Catalog, IndexId, MetadataProvider};
use parinda_inum::{CandidateIndex, Configuration, InumModel, InumOptions, SharedPlanCache};
use parinda_optimizer::{bind, explain, plan_query, CostParams, PlanKind, PlanNode, PlannerFlags};
use parinda_parallel::{Budget, BudgetReport, CancelToken, Parallelism, RunCtx};
use parinda_sql::Select;
use parinda_storage::Database;
use parinda_trace::{Counter, Trace};
use parinda_whatif::{Design, HypotheticalCatalog};

use crate::report::{BenefitReport, QueryBenefit};

/// Search technique for automatic index suggestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMethod {
    /// The paper's technique: ILP over the INUM cost model (§3.4).
    Ilp,
    /// The greedy baseline used by the commercial tools (§1, §2).
    Greedy,
}

/// The workspace-wide error taxonomy: every fallible interactive path
/// funnels into one of these categories, so a frontend can always render
/// a typed, non-fatal message. User input — however malformed — must
/// surface here, never as a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum ParindaError {
    /// SQL, DDL, workload-file, or console-argument parsing failed.
    Parse(String),
    /// Catalog lookup / name resolution failed (unknown table, column,
    /// index, or inconsistent metadata).
    Catalog(String),
    /// Planning or costing failed.
    Plan(String),
    /// What-if simulation failed.
    WhatIf(String),
    /// An advisor (INUM model, ILP selection, AutoPart) failed.
    Advisor(String),
    /// The ILP/LP solver failed or returned an unusable outcome.
    Solver(String),
    /// Filesystem / execution I/O failed.
    Io(String),
    /// A contained panic or broken internal invariant: a bug worth
    /// reporting, but never a reason to abort the session.
    Internal(String),
    /// Operation needs materialized data (heaps) that were never loaded.
    NoData,
}

impl ParindaError {
    /// Stable category name (for logs, tests, and the fuzz gate).
    pub fn kind(&self) -> &'static str {
        match self {
            ParindaError::Parse(_) => "parse",
            ParindaError::Catalog(_) => "catalog",
            ParindaError::Plan(_) => "plan",
            ParindaError::WhatIf(_) => "whatif",
            ParindaError::Advisor(_) => "advisor",
            ParindaError::Solver(_) => "solver",
            ParindaError::Io(_) => "io",
            ParindaError::Internal(_) => "internal",
            ParindaError::NoData => "nodata",
        }
    }
}

impl std::fmt::Display for ParindaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParindaError::Parse(e) => write!(f, "parse error: {e}"),
            ParindaError::Catalog(e) => write!(f, "catalog error: {e}"),
            ParindaError::Plan(e) => write!(f, "planning error: {e}"),
            ParindaError::WhatIf(e) => write!(f, "what-if simulation error: {e}"),
            ParindaError::Advisor(e) => write!(f, "advisor error: {e}"),
            ParindaError::Solver(e) => write!(f, "solver error: {e}"),
            ParindaError::Io(e) => write!(f, "io error: {e}"),
            ParindaError::Internal(e) => write!(f, "internal error (please report): {e}"),
            ParindaError::NoData => write!(f, "operation requires loaded table data"),
        }
    }
}

impl std::error::Error for ParindaError {}

impl From<parinda_sql::SqlError> for ParindaError {
    fn from(e: parinda_sql::SqlError) -> Self {
        ParindaError::Parse(e.to_string())
    }
}

impl From<parinda_optimizer::BindError> for ParindaError {
    fn from(e: parinda_optimizer::BindError) -> Self {
        ParindaError::Catalog(e.to_string())
    }
}

impl From<parinda_optimizer::PlanError> for ParindaError {
    fn from(e: parinda_optimizer::PlanError) -> Self {
        ParindaError::Plan(e.to_string())
    }
}

impl From<parinda_optimizer::OptimizeError> for ParindaError {
    fn from(e: parinda_optimizer::OptimizeError) -> Self {
        match e {
            parinda_optimizer::OptimizeError::Bind(b) => b.into(),
            parinda_optimizer::OptimizeError::Plan(p) => p.into(),
        }
    }
}

impl From<parinda_whatif::WhatIfError> for ParindaError {
    fn from(e: parinda_whatif::WhatIfError) -> Self {
        ParindaError::WhatIf(e.to_string())
    }
}

impl From<parinda_inum::InumError> for ParindaError {
    fn from(e: parinda_inum::InumError) -> Self {
        match e {
            parinda_inum::InumError::Worker(ref w) => ParindaError::Internal(w.clone()),
            other => ParindaError::Advisor(other.to_string()),
        }
    }
}

impl From<parinda_stream::StreamError> for ParindaError {
    fn from(e: parinda_stream::StreamError) -> Self {
        match e {
            parinda_stream::StreamError::Parse(ref m) => ParindaError::Parse(m.clone()),
            other => ParindaError::Advisor(other.to_string()),
        }
    }
}

impl From<parinda_advisor::AdvisorError> for ParindaError {
    fn from(e: parinda_advisor::AdvisorError) -> Self {
        ParindaError::Advisor(e.to_string())
    }
}

impl From<parinda_advisor::RewriteError> for ParindaError {
    fn from(e: parinda_advisor::RewriteError) -> Self {
        ParindaError::Advisor(e.to_string())
    }
}

impl From<parinda_executor::ExecError> for ParindaError {
    fn from(e: parinda_executor::ExecError) -> Self {
        ParindaError::Io(e.to_string())
    }
}

impl From<std::io::Error> for ParindaError {
    fn from(e: std::io::Error) -> Self {
        ParindaError::Io(e.to_string())
    }
}

impl From<parinda_parallel::WorkerPanic> for ParindaError {
    fn from(e: parinda_parallel::WorkerPanic) -> Self {
        ParindaError::Internal(e.to_string())
    }
}

/// Run `f` with a last-resort panic backstop: any unwind that escapes the
/// taxonomy (an internal invariant breach anywhere in the stack) is
/// contained and reported as [`ParindaError::Internal`], keeping the
/// interactive session alive. The state `f` mutated may be partially
/// updated — acceptable for an advisory tool whose designs are
/// re-evaluable — but the process never aborts on user input.
pub fn guard<T>(f: impl FnOnce() -> Result<T, ParindaError>) -> Result<T, ParindaError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            Err(ParindaError::Internal(parinda_parallel::panic_message(&*payload)))
        }
    }
}

/// One index-advice request: everything [`Parinda::advise`] needs besides
/// the session's own state (catalog, threads, budgets, trace).
#[derive(Debug, Clone)]
pub struct AdviseRequest<'a> {
    /// The statements (or, for a compressed/streamed workload, the
    /// templates) to advise over.
    pub workload: &'a [Select],
    /// A multiplicity per statement (template weights from workload
    /// compression); `None` = every statement counts once. The INUM model
    /// is built weighted — budgeted cache population covers the heaviest
    /// templates first — and every reported cost is the weighted sum.
    /// Both selection methods honour the weights; all 1.0 is
    /// bit-identical to `None`.
    pub weights: Option<&'a [f64]>,
    /// Continuous tuning: the previous epoch's templates and weights.
    /// When given, the INUM model is maintained incrementally via
    /// [`InumModel::apply_delta`] — only new-or-vanished templates are
    /// re-bound/re-populated; everything carried over is bit-identical to
    /// a from-scratch weighted build.
    pub previous: Option<(&'a [Select], &'a [f64])>,
    /// Storage budget for the suggested indexes, in bytes.
    pub budget_bytes: u64,
    /// ILP (the paper's technique) or the greedy baseline.
    pub method: SelectionMethod,
    /// The paper's additional DBA constraints (update-cost cap) and the
    /// ILP's reference/ablation switches; only the ILP reads them.
    pub options: IlpOptions,
    /// Index names forced into the design, budget-first: the
    /// `idx_<table>_<cols>` display form, a real catalog index name, or
    /// an explicit `table(col, col)` spec.
    pub pinned: &'a [String],
    /// Index names (same spellings) that never enter the solver's search
    /// space.
    pub banned: &'a [String],
}

impl<'a> AdviseRequest<'a> {
    /// The default request: unweighted, from scratch, default options,
    /// nothing pinned or banned.
    pub fn new(workload: &'a [Select], budget_bytes: u64, method: SelectionMethod) -> Self {
        AdviseRequest {
            workload,
            weights: None,
            previous: None,
            budget_bytes,
            method,
            options: IlpOptions::default(),
            pinned: &[],
            banned: &[],
        }
    }
}

/// Result of automatic index suggestion (scenario 3).
#[derive(Debug, Clone)]
pub struct IndexSuggestion {
    /// Suggested indexes: (name, table name, key column names, size bytes).
    pub indexes: Vec<SuggestedIndex>,
    /// Benefit report over the workload.
    pub report: BenefitReport,
    /// Whether the ILP proved optimality (always true for a greedy run
    /// that finished; `false` whenever the solver hit a node/time limit
    /// or the run was degraded by a budget).
    pub proven_optimal: bool,
    /// `true` when a budget or cancellation stopped the advisor early:
    /// the suggestion is valid but best-so-far, not the full search.
    pub degraded: bool,
    /// Accounting for the degraded run (`None` when not degraded).
    pub budget: Option<BudgetReport>,
}

/// One suggested index.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestedIndex {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub size_bytes: u64,
}

/// Result of automatic partition suggestion (scenario 2).
#[derive(Debug, Clone)]
pub struct PartitionSuggestionReport {
    /// Suggested partitions: (partition table name, parent, columns).
    pub partitions: Vec<SuggestedPartition>,
    /// Benefit report.
    pub report: BenefitReport,
    /// Rewritten workload, parallel to the input.
    pub rewritten: Vec<Select>,
    /// The raw design (for materialization / further evaluation).
    pub design: PartitionDesign,
    /// AutoPart improvement iterations executed.
    pub iterations: usize,
    /// `true` when a budget or cancellation stopped AutoPart early: the
    /// design is valid (constraints re-checked) but best-so-far.
    pub degraded: bool,
    /// Accounting for the degraded run (`None` when not degraded).
    pub budget: Option<BudgetReport>,
}

/// One suggested partition.
#[derive(Debug, Clone, PartialEq)]
pub struct SuggestedPartition {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
}

/// A real index the workload would not miss.
#[derive(Debug, Clone, PartialEq)]
pub struct DropSuggestion {
    pub index: String,
    pub table: String,
    /// Bytes freed by dropping it.
    pub reclaimed_bytes: u64,
    /// Workload cost change when simulated absent (≈ 0 by construction).
    pub cost_delta: f64,
}

/// Process-global source of core generation ids: every metadata version
/// of every engine core in the process gets a unique id. Soundness of the
/// shared plan cache comes from the fresh cache swapped in alongside each
/// bump (see [`Parinda::privatize`]); the id itself is observability —
/// `server stats` reports it so operators can see metadata churn.
static GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// The shareable heart of an engine: catalog + storage + cost parameters
/// + the engine-wide INUM plan cache. Immutable while shared; sessions
/// copy-on-write it before any mutation.
#[derive(Clone)]
struct EngineCore {
    catalog: Catalog,
    db: Database,
    params: CostParams,
    flags: PlannerFlags,
    /// Thread-count policy new sessions start with.
    default_par: Parallelism,
    /// Engine-wide admission-control cap on per-request wall-clock
    /// budgets: each advisor call runs under
    /// `min(session budget, this cap)`. `None` (the default) leaves
    /// sessions exactly as budgeted as a standalone REPL — bit-identical.
    max_budget_ms: Option<u64>,
    /// Unique id of this core's metadata version (see [`GENERATION`]).
    generation: u64,
    /// Cross-session INUM plan cache; always replaced together with any
    /// metadata change, so entries are pure functions of this core.
    plan_cache: Arc<SharedPlanCache>,
}

impl EngineCore {
    fn new(catalog: Catalog) -> EngineCore {
        EngineCore {
            catalog,
            db: Database::new(),
            params: CostParams::default(),
            flags: PlannerFlags::default(),
            default_par: Parallelism::auto(),
            max_budget_ms: None,
            generation: next_generation(),
            plan_cache: Arc::new(SharedPlanCache::new()),
        }
    }
}

/// Everything one session may change without any other session sharing
/// the same engine core noticing: thread policy, budgets, cancellation
/// token, observability handle. Staged what-if designs live one layer up,
/// in the console.
#[derive(Clone)]
pub struct SessionState {
    par: Parallelism,
    /// Wall-clock budget per advisor call (`None` = unlimited).
    budget_ms: Option<u64>,
    /// Round-cap budget per advisor call (`None` = unlimited). Rounds
    /// are scheduling-independent, so round-capped runs are
    /// deterministic at any thread count.
    budget_rounds: Option<usize>,
    /// Cooperative cancellation flag shared with the frontend (Ctrl-C in
    /// the REPL; the connection reader in the server). Per-session by
    /// construction: cancelling one session never touches another.
    cancel: CancelToken,
    /// Observability handle; disabled by default. Every phase of the
    /// pipeline records spans/counters through this. Tracing is strictly
    /// write-only for the pipeline: no result ever depends on it.
    trace: Trace,
}

impl SessionState {
    fn fresh(par: Parallelism) -> SessionState {
        SessionState {
            par,
            budget_ms: None,
            budget_rounds: None,
            cancel: CancelToken::new(),
            trace: Trace::disabled(),
        }
    }
}

/// A concurrently shareable PARINDA engine: one immutable core serving
/// many simultaneous sessions.
///
/// Cloning is cheap (an `Arc` bump) and every clone mints sessions over
/// the *same* core: sessions share the catalog, storage, cost parameters
/// and the INUM plan cache (so one session's advisor run warms the cache
/// for everyone), but own their budgets, cancellation token, thread
/// policy, trace, and staged what-if designs. A session that mutates
/// metadata detaches onto a private copy-on-write core; the shared core
/// — and every other session — is never affected.
#[derive(Clone)]
pub struct SharedEngine {
    core: Arc<EngineCore>,
}

impl SharedEngine {
    /// A shareable engine over a catalog (statistics-only mode).
    pub fn new(catalog: Catalog) -> SharedEngine {
        SharedEngine::from_session(Parinda::new(catalog))
    }

    /// A shareable engine with materialized data.
    pub fn with_database(catalog: Catalog, db: Database) -> SharedEngine {
        SharedEngine::from_session(Parinda::with_database(catalog, db))
    }

    /// A shareable engine from a DDL script (see [`Parinda::from_ddl`]).
    pub fn from_ddl(script: &str) -> Result<SharedEngine, ParindaError> {
        Ok(SharedEngine::from_session(Parinda::from_ddl(script)?))
    }

    /// Promote a fully built session into a shareable engine. The
    /// session's core (catalog, data, params, warm plan cache) becomes
    /// the shared core; its per-session state is dropped.
    pub fn from_session(session: Parinda) -> SharedEngine {
        SharedEngine { core: session.core }
    }

    /// Builder: thread-count policy handed to fresh sessions. Tuning
    /// knobs never invalidate the plan cache — results are identical at
    /// any thread count.
    pub fn with_default_parallelism(mut self, par: Parallelism) -> SharedEngine {
        Arc::make_mut(&mut self.core).default_par = par;
        self
    }

    /// Builder: engine-wide wall-clock budget cap per advisor call
    /// (admission control). Each request runs under
    /// `min(session budget, cap)`; `None` removes the cap.
    pub fn with_max_budget_ms(mut self, ms: Option<u64>) -> SharedEngine {
        Arc::make_mut(&mut self.core).max_budget_ms = ms;
        self
    }

    /// Open an independent session over the shared core.
    pub fn session(&self) -> Parinda {
        Parinda {
            core: Arc::clone(&self.core),
            state: SessionState::fresh(self.core.default_par),
        }
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.core.catalog
    }

    /// The engine-wide wall-clock budget cap, if any.
    pub fn max_budget_ms(&self) -> Option<u64> {
        self.core.max_budget_ms
    }

    /// Generation id of the shared core's metadata version.
    pub fn generation(&self) -> u64 {
        self.core.generation
    }

    /// INUM plan-cache hits served engine-wide (whole-query cache
    /// populations skipped because some session already built them).
    pub fn plan_cache_hits(&self) -> u64 {
        self.core.plan_cache.hits()
    }

    /// INUM plan-cache misses engine-wide (case lists built fresh).
    pub fn plan_cache_misses(&self) -> u64 {
        self.core.plan_cache.misses()
    }

    /// Distinct query case lists currently in the shared plan cache.
    pub fn plan_cache_entries(&self) -> usize {
        self.core.plan_cache.entries()
    }
}

/// A PARINDA session: a handle on an engine core (possibly shared with
/// other sessions — see [`SharedEngine`]) plus this session's own
/// [`SessionState`].
pub struct Parinda {
    core: Arc<EngineCore>,
    state: SessionState,
}

impl Parinda {
    /// Open a standalone session over a catalog (statistics-only mode:
    /// everything works except execution and physical materialization).
    /// The session owns its core, so mutation never copies.
    pub fn new(catalog: Catalog) -> Self {
        let core = EngineCore::new(catalog);
        let state = SessionState::fresh(core.default_par);
        Parinda { core: Arc::new(core), state }
    }

    /// Open a standalone session with materialized data.
    pub fn with_database(catalog: Catalog, db: Database) -> Self {
        let mut s = Parinda::new(catalog);
        s.privatize().db = db;
        s
    }

    /// Copy-on-write escape hatch for every metadata mutation (DDL,
    /// materialization, cost-parameter edits): if other sessions share
    /// the core it is deep-copied first, so they keep the old metadata;
    /// either way the (possibly new) core gets a fresh generation and an
    /// empty INUM plan cache, because cached case lists are pure
    /// functions of exactly the state being mutated.
    fn privatize(&mut self) -> &mut EngineCore {
        let core = Arc::make_mut(&mut self.core);
        core.generation = next_generation();
        core.plan_cache = Arc::new(SharedPlanCache::new());
        core
    }

    /// The thread-count policy the session's advisors evaluate with.
    pub fn parallelism(&self) -> Parallelism {
        self.state.par
    }

    /// Change the thread-count policy (the CLI's `threads` command).
    /// Advisor output is identical at any setting; only wall-clock changes.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.state.par = par;
    }

    /// Wall-clock budget per advisor call, in milliseconds (`None` =
    /// unlimited). Under a budget the advisors become *anytime*: an
    /// expired deadline returns the best design found so far, flagged
    /// `degraded`, instead of running to completion.
    pub fn budget_ms(&self) -> Option<u64> {
        self.state.budget_ms
    }

    /// Set (or clear, with `None`) the wall-clock advisor budget.
    /// `budget off` / unlimited produces bit-identical output to a
    /// session that never had a budget.
    pub fn set_budget_ms(&mut self, ms: Option<u64>) {
        self.state.budget_ms = ms;
    }

    /// Round-cap advisor budget (`None` = unlimited). Unlike a deadline,
    /// a round cap is scheduling-independent: the same cap yields the
    /// same degraded design at any thread count.
    pub fn budget_rounds(&self) -> Option<usize> {
        self.state.budget_rounds
    }

    /// Set (or clear) the round-cap advisor budget.
    pub fn set_budget_rounds(&mut self, rounds: Option<usize>) {
        self.state.budget_rounds = rounds;
    }

    /// The session's cooperative cancellation token. Cancelling it (from
    /// any thread — e.g. a Ctrl-C handler) makes the advisor in flight
    /// stop at its next checkpoint and return best-so-far. The token is
    /// *not* auto-reset; callers clear it between runs.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.state.cancel
    }

    /// Replace the cancellation token (a frontend that owns several
    /// sessions — the REPL across `load`s, the server per connection —
    /// wires each session to the token its signal source flips).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.state.cancel = token;
    }

    /// Request cancellation of the advisor call in flight (or the next
    /// one, if none is running).
    pub fn request_cancel(&self) {
        self.state.cancel.cancel();
    }

    /// The session's observability handle (disabled unless a frontend
    /// attached one with [`Parinda::set_trace`]).
    pub fn trace(&self) -> &Trace {
        &self.state.trace
    }

    /// Attach (or detach, with [`Trace::disabled`]) an observability
    /// handle. The console's `profile on|off` commands call this; the
    /// CLI's `--trace-json` attaches one for the whole run.
    pub fn set_trace(&mut self, trace: Trace) {
        self.state.trace = trace;
    }

    /// The [`RunCtx`] of one advisor call: the session's threads and
    /// trace, and a [`Budget`] anchored *now* — the session's own
    /// wall-clock budget min'd against the engine-wide admission cap —
    /// with the round cap and cancel token attached. Without an engine cap
    /// this is exactly the standalone REPL budget, bit for bit.
    fn run_ctx(&self) -> RunCtx {
        let ms = match (self.state.budget_ms, self.core.max_budget_ms) {
            (Some(own), Some(cap)) => Some(own.min(cap)),
            (own, cap) => own.or(cap),
        };
        let mut b = match ms {
            Some(ms) => Budget::deadline_ms(ms),
            None => Budget::unlimited(),
        };
        if let Some(r) = self.state.budget_rounds {
            b = b.with_rounds(r);
        }
        RunCtx {
            par: self.state.par,
            budget: b.with_cancel(self.state.cancel.clone()),
            trace: self.state.trace.clone(),
        }
    }

    /// Open a session from a DDL script (`CREATE TABLE … ROWS n;`,
    /// `CREATE INDEX …`): the demo's "original physical design" input.
    /// Tables get default planner statistics; load data or attach
    /// synthesized statistics for better estimates.
    pub fn from_ddl(script: &str) -> Result<Self, ParindaError> {
        let mut session = Parinda::new(Catalog::new());
        session.execute_ddl(script)?;
        Ok(session)
    }

    /// Apply a DDL script to the session's catalog. SELECT statements in
    /// the script are ignored (use a workload file for those). Returns the
    /// number of objects created.
    pub fn execute_ddl(&mut self, script: &str) -> Result<usize, ParindaError> {
        use parinda_sql::Statement;
        let stmts =
            parinda_sql::parse_ddl_script(script)?;
        let core = self.privatize();
        let mut created = 0;
        for stmt in stmts {
            match stmt {
                Statement::CreateTable(ct) => {
                    if core.catalog.table_by_name(&ct.name).is_some() {
                        return Err(ParindaError::Catalog(format!(
                            "table {} already exists",
                            ct.name
                        )));
                    }
                    let columns: Vec<parinda_catalog::Column> = ct
                        .columns
                        .iter()
                        .map(|c| {
                            let col = parinda_catalog::Column::new(&c.name, c.ty);
                            if c.not_null {
                                col.not_null()
                            } else {
                                col
                            }
                        })
                        .collect();
                    let id = core.catalog.create_table(&ct.name, columns, ct.rows.unwrap_or(0));
                    if !ct.primary_key.is_empty() {
                        let table = core.catalog.table_mut(id).ok_or_else(|| {
                            ParindaError::Internal("freshly created table vanished".into())
                        })?;
                        let pk: Option<Vec<usize>> =
                            ct.primary_key.iter().map(|n| table.column_index(n)).collect();
                        match pk {
                            Some(pk) => table.primary_key = pk,
                            None => {
                                return Err(ParindaError::Catalog(format!(
                                    "primary key references unknown column on {}",
                                    ct.name
                                )))
                            }
                        }
                    }
                    created += 1;
                }
                Statement::CreateIndex(ci) => {
                    let cols: Vec<&str> = ci.columns.iter().map(|s| s.as_str()).collect();
                    core.catalog
                        .create_index(&ci.name, &ci.table, &cols)
                        .ok_or_else(|| {
                            ParindaError::Catalog(format!(
                                "cannot create index {} on {}({})",
                                ci.name,
                                ci.table,
                                ci.columns.join(", ")
                            ))
                        })?;
                    created += 1;
                }
                Statement::Select(_) => {}
            }
        }
        Ok(created)
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.core.catalog
    }

    /// Mutable catalog access (DDL). Copy-on-write: detaches from a
    /// shared engine core and invalidates the plan cache.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.privatize().catalog
    }

    /// The storage layer.
    pub fn database(&self) -> &Database {
        &self.core.db
    }

    /// Mutable storage access. Copy-on-write, like [`Parinda::catalog_mut`].
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.privatize().db
    }

    /// Split mutable access to catalog and storage (index builds need
    /// both). Copy-on-write, like [`Parinda::catalog_mut`].
    pub fn catalog_db_mut(&mut self) -> (&mut Catalog, &mut Database) {
        let core = self.privatize();
        (&mut core.catalog, &mut core.db)
    }

    /// EXPLAIN a statement under the current design.
    pub fn explain_sql(&self, sql: &str) -> Result<String, ParindaError> {
        let sel = {
            let _s = self.state.trace.span("parse");
            parinda_sql::parse_select(sql)?
        };
        self.explain_query(&sel)
    }

    /// EXPLAIN a parsed statement.
    pub fn explain_query(&self, sel: &Select) -> Result<String, ParindaError> {
        let (q, p) = self.plan_one(sel)?;
        Ok(explain(&p, &q, &self.core.catalog))
    }

    /// EXPLAIN a statement with a per-node cost breakdown and, when
    /// `design` is non-empty, the what-if deltas under that hypothetical
    /// design (the console's enriched `explain <query>`). The what-if side
    /// is the plan [`Parinda::evaluate_design`] costs: the cheaper of the
    /// statement as written and its rewrite for the simulated partitions,
    /// whose SQL is printed when it wins.
    pub fn explain_sql_breakdown(
        &self,
        sql: &str,
        design: Option<&Design>,
    ) -> Result<String, ParindaError> {
        let sel = {
            let _s = self.state.trace.span("parse");
            parinda_sql::parse_select(sql)?
        };
        let (q, p) = self.plan_one(&sel)?;
        let base_rows = parinda_optimizer::breakdown(&p, &q, &self.core.catalog);
        let (whatif_rows, rewritten) = match design {
            Some(d) if !d.is_empty() => {
                let _s = self.state.trace.span("whatif");
                let (params, flags) = (&self.core.params, &self.core.flags);
                let trace = &self.state.trace;
                let whatif = WhatIfDesign::from_design(&self.core.catalog, d)?;
                let overlay = &whatif.overlay;
                let qh = bind(&sel, overlay)?;
                let ph = plan_query(&qh, overlay, params, flags)?;
                trace.count(Counter::OptimizerInvocations, 1);
                match whatif.cheaper_rewrite(&sel, params, flags, ph.cost.total, trace) {
                    Some((rw, qr, pr)) => {
                        (Some(parinda_optimizer::breakdown(&pr, &qr, overlay)), Some(rw))
                    }
                    None => (Some(parinda_optimizer::breakdown(&ph, &qh, overlay)), None),
                }
            }
            _ => (None, None),
        };
        let mut out = explain(&p, &q, &self.core.catalog);
        out.push('\n');
        out.push_str(&parinda_optimizer::render_breakdown(&base_rows, whatif_rows.as_deref()));
        if let Some(rw) = rewritten {
            out.push_str(&format!("\nrewritten query:\n  {rw};\n"));
        }
        Ok(out)
    }

    /// Bind and plan one statement, recording the `plan` phase.
    fn plan_one(
        &self,
        sel: &Select,
    ) -> Result<(parinda_optimizer::BoundQuery, parinda_optimizer::PlanNode), ParindaError> {
        let _s = self.state.trace.span("plan");
        let q = bind(sel, &self.core.catalog)?;
        let p = plan_query(&q, &self.core.catalog, &self.core.params, &self.core.flags)?;
        self.state.trace.count(Counter::OptimizerInvocations, 1);
        Ok((q, p))
    }

    /// Workload cost under the current design.
    pub fn workload_cost(&self, workload: &[Select]) -> Result<f64, ParindaError> {
        let mut total = 0.0;
        for sel in workload {
            let (_, p) = self.plan_one(sel)?;
            total += p.cost.total;
        }
        Ok(total)
    }

    // ---------- scenario 1: interactive ----------

    /// Evaluate a DBA-chosen what-if design over a workload (scenario 1 /
    /// Figure 3): per-query and average benefits, features used, and the
    /// rewritten workload (the original statement where rewriting does
    /// not apply or does not help). After = the cheaper of the statement
    /// as written and its rewrite for the simulated partitions, both
    /// planned under the design.
    pub fn evaluate_design(
        &self,
        workload: &[Select],
        design: &Design,
    ) -> Result<(BenefitReport, Vec<Select>), ParindaError> {
        let _s = self.state.trace.span("whatif");
        let (catalog, params, flags) = (&self.core.catalog, &self.core.params, &self.core.flags);
        let trace = &self.state.trace;
        let whatif = WhatIfDesign::from_design(catalog, design)?;
        let overlay = &whatif.overlay;
        let mut per_query = Vec::with_capacity(workload.len());
        let mut rewritten = Vec::with_capacity(workload.len());
        for sel in workload {
            let before = plan_query(&bind(sel, catalog)?, catalog, params, flags)?;
            let direct = plan_query(&bind(sel, overlay)?, overlay, params, flags)?;
            let rewrite = whatif.cheaper_rewrite(sel, params, flags, direct.cost.total, trace);
            let (chosen, plan) = match rewrite {
                Some((rw, _, p)) => (rw, p),
                None => (sel.clone(), direct),
            };
            per_query.push(QueryBenefit {
                sql: sel.to_string(),
                cost_before: before.cost.total,
                cost_after: plan.cost.total,
                features_used: features_used(&plan, overlay),
            });
            rewritten.push(chosen);
        }
        // the rewrites' plans were counted as they ran
        trace.count(Counter::OptimizerInvocations, 2 * workload.len() as u64);
        Ok((BenefitReport { per_query, design_bytes: overlay.hypothetical_bytes() }, rewritten))
    }

    // ---------- scenario 3: automatic index suggestion ----------

    /// Suggest indexes for the workload under a storage budget: the
    /// default [`AdviseRequest`].
    pub fn suggest_indexes(
        &self,
        workload: &[Select],
        budget_bytes: u64,
        method: SelectionMethod,
    ) -> Result<IndexSuggestion, ParindaError> {
        self.advise(&AdviseRequest::new(workload, budget_bytes, method))
    }

    /// The 100k-statement path (scenario 3 at scale): cluster the raw
    /// statement stream into weighted templates, then advise over the
    /// templates. Advising work scales with the number of *templates*,
    /// not statements; the selection equals advising over the raw stream
    /// because the weighted template cost is exactly the stream's total.
    /// Returns the suggestion plus the compression itself (for the
    /// console's `workload stats`).
    pub fn suggest_indexes_compressed(
        &self,
        workload: &parinda_workload::Workload,
        budget_bytes: u64,
        method: SelectionMethod,
        options: &IlpOptions,
    ) -> Result<(IndexSuggestion, parinda_workload::CompressedWorkload), ParindaError> {
        let compressed = parinda_workload::compress_workload(workload, &self.state.trace);
        let suggestion = self.advise(&AdviseRequest {
            weights: Some(&compressed.weights()),
            options: options.clone(),
            ..AdviseRequest::new(&compressed.queries(), budget_bytes, method)
        })?;
        Ok((suggestion, compressed))
    }

    /// Resolve a DBA-supplied index name into a [`CandidateIndex`]:
    /// first a generated candidate whose display name matches, then a
    /// real catalog index with that name, then an explicit
    /// `table(col, col)` spec. Anything else is a typed advisor error.
    fn resolve_candidate(
        &self,
        cands: &[CandidateIndex],
        name: &str,
    ) -> Result<CandidateIndex, ParindaError> {
        let name = name.trim();
        for c in cands {
            if let Some(table) = self.core.catalog.table(c.table) {
                if c.display_name(table) == name {
                    return Ok(c.clone());
                }
            }
        }
        if let Some(idx) = self.core.catalog.index_by_name(name) {
            return Ok(CandidateIndex::new(idx.table, idx.key_columns.clone()));
        }
        if let Some((table_name, rest)) = name.split_once('(') {
            let table = self
                .core
                .catalog
                .table_by_name(table_name.trim())
                .ok_or_else(|| {
                    ParindaError::Advisor(format!("unknown table in index spec `{name}`"))
                })?;
            let cols: Option<Vec<usize>> = rest
                .trim_end_matches(')')
                .split(',')
                .map(|c| table.column_index(c.trim()))
                .collect();
            match cols {
                Some(cols) if !cols.is_empty() => {
                    return Ok(CandidateIndex::new(table.id, cols));
                }
                _ => {
                    return Err(ParindaError::Advisor(format!(
                        "unknown column in index spec `{name}`"
                    )))
                }
            }
        }
        Err(ParindaError::Advisor(format!(
            "unknown index `{name}`: not a suggested candidate, a catalog index, \
             or a `table(col, col)` spec"
        )))
    }

    /// Automatic index suggestion (scenario 3) — the one body behind
    /// every spelling. See [`AdviseRequest`] for what each field selects.
    pub fn advise(&self, req: &AdviseRequest<'_>) -> Result<IndexSuggestion, ParindaError> {
        let AdviseRequest { workload, weights, budget_bytes, method, .. } = *req;
        let ctx = self.run_ctx();
        let build = |workload: &[Select], weights: Option<&[f64]>, ctx: &RunCtx| {
            let _s = self.state.trace.span("inum_build");
            InumModel::build_in(
                &self.core.catalog,
                workload,
                weights,
                self.core.params.clone(),
                InumOptions::default(),
                Some(&self.core.plan_cache),
                ctx,
            )
        };
        let mut model = match req.previous {
            // Incremental path: rebuild the previous epoch's model (its
            // case lists come straight out of the shared plan cache —
            // warm, no planning) and delta it onto the new templates.
            Some((prev_workload, prev_weights)) if !prev_workload.is_empty() => {
                let uncapped = RunCtx {
                    budget: Budget::unlimited().with_cancel(self.state.cancel.clone()),
                    ..ctx.clone()
                };
                let mut model = build(prev_workload, Some(prev_weights), &uncapped)?;
                let weights_vec: Vec<f64> =
                    weights.map(|w| w.to_vec()).unwrap_or_else(|| vec![1.0; workload.len()]);
                model.apply_delta(workload, &weights_vec)?;
                model
            }
            _ => build(workload, weights, &ctx)?,
        };
        let budget = &ctx.budget;
        let inum_skipped = model.degraded_queries();
        let queries = model.queries().to_vec();
        let cands = generate_candidates(&queries, CandidateLimits::default());
        let resolve = |names: &[String]| -> Result<Vec<CandidateIndex>, ParindaError> {
            names.iter().map(|n| self.resolve_candidate(&cands, n)).collect()
        };
        let constraints =
            SolverConstraints { pinned: resolve(req.pinned)?, banned: resolve(req.banned)? };
        // Conflicts are detected on the *resolved* candidates, not the
        // spellings: `orders(o_custkey)` and its generated
        // `idx_orders_o_custkey` display name are the same index.
        if let Some(i) = constraints.pinned.iter().position(|p| constraints.banned.contains(p)) {
            return Err(ParindaError::Advisor(format!(
                "index `{}` is both pinned and banned",
                req.pinned[i]
            )));
        }
        let sel = match method {
            SelectionMethod::Ilp => select_indexes_ilp(
                &mut model,
                &cands,
                budget_bytes,
                &req.options,
                &constraints,
                budget,
            ),
            SelectionMethod::Greedy => {
                select_indexes_greedy(&mut model, &cands, budget_bytes, &constraints, budget)
            }
        };

        let mut indexes = Vec::new();
        for &id in &sel.chosen {
            let c = model.candidate(id);
            let table = self.core.catalog.table(c.table).ok_or_else(|| {
                ParindaError::Internal("candidate references a vanished table".into())
            })?;
            indexes.push(SuggestedIndex {
                name: c.display_name(table),
                table: table.name.clone(),
                columns: c
                    .columns
                    .iter()
                    .filter_map(|&i| table.columns.get(i).map(|c| c.name.clone()))
                    .collect(),
                size_bytes: model.candidate_size(id),
            });
        }

        // Per-query feature attribution: which chosen indexes help which
        // query ("for each query the list of the used suggested indexes").
        let per_query = workload
            .iter()
            .zip(&sel.per_query)
            .enumerate()
            .map(|(qidx, (sql, &(before, after)))| {
                let mut features = Vec::new();
                if after < before * 0.9999 {
                    for (&id, info) in sel.chosen.iter().zip(&indexes) {
                        let without: Vec<_> =
                            sel.chosen.iter().copied().filter(|&x| x != id).collect();
                        let cost_without =
                            model.cost(qidx, &Configuration::from_ids(without));
                        if cost_without > after * 1.0001 {
                            features.push(info.name.clone());
                        }
                    }
                }
                crate::report::QueryBenefit {
                    sql: sql.to_string(),
                    cost_before: before,
                    cost_after: after,
                    features_used: features,
                }
            })
            .collect();

        let degraded = sel.degraded || inum_skipped > 0;
        if degraded {
            self.state.trace.count(Counter::BudgetDegradations, 1);
        }
        let budget_report = degraded
            .then(|| sel.budget.clone().unwrap_or_else(|| budget.report(0, inum_skipped)));
        Ok(IndexSuggestion {
            indexes,
            report: BenefitReport { per_query, design_bytes: sel.total_size },
            proven_optimal: sel.proven_optimal && inum_skipped == 0,
            degraded,
            budget: budget_report,
        })
    }

    /// Physically create the suggested indexes ("the user has the option to
    /// physically create the suggested set of indexes on disk"). Requires
    /// loaded data.
    pub fn materialize_indexes(
        &mut self,
        suggestion: &IndexSuggestion,
    ) -> Result<Vec<IndexId>, ParindaError> {
        let core = self.privatize();
        let mut out = Vec::new();
        for idx in &suggestion.indexes {
            if core.db.heap(core.catalog.table_by_name(&idx.table).ok_or(ParindaError::NoData)?.id).is_none() {
                return Err(ParindaError::NoData);
            }
            let cols: Vec<&str> = idx.columns.iter().map(|s| s.as_str()).collect();
            let id = core
                .catalog
                .create_index(&idx.name, &idx.table, &cols)
                .ok_or_else(|| ParindaError::Advisor(format!("cannot create {}", idx.name)))?;
            core.db.build_index(&mut core.catalog, id);
            out.push(id);
        }
        Ok(out)
    }

    /// Physically create suggested partitions: real tables loaded with the
    /// projected rows ("the user has the option to physically create on
    /// disk the suggested partitions"). Requires loaded parent data.
    pub fn materialize_partitions(
        &mut self,
        suggestion: &PartitionSuggestionReport,
    ) -> Result<Vec<parinda_catalog::TableId>, ParindaError> {
        let core = self.privatize();
        let mut out = Vec::new();
        for (sp, nf) in suggestion.partitions.iter().zip(&suggestion.design.fragments) {
            let parent = core
                .catalog
                .table_by_name(&sp.table)
                .ok_or_else(|| ParindaError::Advisor(format!("unknown table {}", sp.table)))?
                .clone();
            let heap_missing = core.db.heap(parent.id).is_none();
            if heap_missing {
                return Err(ParindaError::NoData);
            }
            // Fragment columns: PK first, then the fragment's columns.
            let mut cols: Vec<usize> = parent.primary_key.clone();
            for &c in &nf.fragment.columns {
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            let col_defs: Vec<parinda_catalog::Column> =
                cols.iter().map(|&i| parent.columns[i].clone()).collect();
            let rows: Vec<Vec<parinda_catalog::Datum>> = {
                let heap = core.db.heap(parent.id).ok_or(ParindaError::NoData)?;
                heap.scan()
                    .map(|(_, row)| cols.iter().map(|&i| row[i].clone()).collect())
                    .collect()
            };
            let id = core.catalog.create_table(&sp.name, col_defs, 0);
            let part = core.catalog.table_mut(id).ok_or_else(|| {
                ParindaError::Internal("freshly created partition vanished".into())
            })?;
            part.primary_key = (0..parent.primary_key.len()).collect();
            part.partition_of = Some(parent.id);
            core.db
                .load_table(&mut core.catalog, id, rows)
                .map_err(|e| ParindaError::Advisor(e.to_string()))?;
            core.db.analyze_table(&mut core.catalog, id);
            out.push(id);
        }
        Ok(out)
    }

    /// Suggest *dropping* real indexes the workload does not need: for each
    /// existing index, simulate its absence (the what-if join of "presence
    /// or lack" of features, §3.2) and report those whose removal leaves
    /// the workload cost unchanged, together with the bytes reclaimed.
    pub fn suggest_drops(&self, workload: &[Select]) -> Result<Vec<DropSuggestion>, ParindaError> {
        let base: f64 = self.workload_cost(workload)?;
        let mut out = Vec::new();
        for idx in self.core.catalog.all_indexes().to_vec() {
            let design = Design { drop_indexes: vec![idx.name.clone()], ..Default::default() };
            let overlay = design.apply(&self.core.catalog)?;
            let mut without = 0.0;
            for sel in workload {
                let q = bind(sel, &overlay)?;
                let p = plan_query(&q, &overlay, &self.core.params, &self.core.flags)?;
                without += p.cost.total;
            }
            if without <= base * 1.0001 {
                let table = self
                    .core
                    .catalog
                    .table(idx.table)
                    .map(|t| t.name.clone())
                    .unwrap_or_default();
                out.push(DropSuggestion {
                    index: idx.name.clone(),
                    table,
                    reclaimed_bytes: idx.size_bytes(),
                    cost_delta: without - base,
                });
            }
        }
        Ok(out)
    }

    // ---------- scenario 2: automatic partition suggestion ----------

    /// Suggest table partitions for the workload (scenario 2 / Figure 2).
    pub fn suggest_partitions(
        &self,
        workload: &[Select],
        config: AutoPartConfig,
    ) -> Result<PartitionSuggestionReport, ParindaError> {
        let sugg = suggest_partitions(&self.core.catalog, workload, config, &self.run_ctx())?;
        if sugg.degraded {
            self.state.trace.count(Counter::BudgetDegradations, 1);
        }

        let mut partitions = Vec::with_capacity(sugg.design.fragments.len());
        for nf in &sugg.design.fragments {
            let parent = self.core.catalog.table(nf.fragment.table).ok_or_else(|| {
                ParindaError::Internal("suggested fragment references a vanished table".into())
            })?;
            partitions.push(SuggestedPartition {
                name: nf.name.clone(),
                table: parent.name.clone(),
                columns: nf
                    .fragment
                    .columns
                    .iter()
                    .filter_map(|&i| parent.columns.get(i).map(|c| c.name.clone()))
                    .collect(),
            });
        }

        let per_query = workload
            .iter()
            .zip(&sugg.per_query)
            .zip(&sugg.rewritten)
            .map(|((sql, &(before, after)), rw)| {
                // features = the partitions the rewritten statement touches
                let mut features: Vec<String> = sugg
                    .design
                    .fragments
                    .iter()
                    .filter(|nf| rw.from.iter().any(|t| t.name == nf.name))
                    .map(|nf| nf.name.clone())
                    .collect();
                features.dedup();
                crate::report::QueryBenefit {
                    sql: sql.to_string(),
                    cost_before: before,
                    cost_after: after,
                    features_used: features,
                }
            })
            .collect();

        Ok(PartitionSuggestionReport {
            partitions,
            report: BenefitReport { per_query, design_bytes: 0 },
            rewritten: sugg.rewritten,
            design: sugg.design,
            iterations: sugg.iterations,
            degraded: sugg.degraded,
            budget: sugg.budget,
        })
    }
}

/// Feature attribution for one what-if plan: the hypothetical indexes it
/// uses, then the simulated partitions it scans.
fn features_used(plan: &PlanNode, overlay: &HypotheticalCatalog<'_>) -> Vec<String> {
    let mut features: Vec<String> = plan
        .indexes_used()
        .into_iter()
        .filter_map(|id| overlay.hypo_index(id).map(|i| i.name.clone()))
        .collect();
    let mut frag_tables: Vec<String> = Vec::new();
    plan.walk(&mut |n| {
        if let PlanKind::SeqScan { table, .. } | PlanKind::IndexScan { table, .. } = &n.kind {
            if let Some(t) = overlay.table(*table) {
                if t.partition_of.is_some() {
                    frag_tables.push(t.name.clone());
                }
            }
        }
    });
    frag_tables.dedup();
    features.extend(frag_tables);
    features
}
