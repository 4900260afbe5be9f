//! The interactive console — command parsing and dispatch for the
//! terminal rendition of the demo GUI (paper Figures 2–3), shared by the
//! `parinda-cli` binary and the no-panic fuzz harness.
//!
//! The console is the tool's crash boundary: [`Console::run_line`] never
//! panics and never aborts the process. Malformed input surfaces as a
//! typed [`ParindaError`], and every dispatch runs under the
//! [`guard`](crate::session::guard) `catch_unwind` backstop, so even an
//! internal invariant breach is reported as
//! [`ParindaError::Internal`] while the session stays alive.

use parinda_catalog::MetadataProvider;
use parinda_whatif::{Design, WhatIfIndex, WhatIfPartition};
use parinda_workload::{
    generate_and_load, parse_workload, sdss_catalog, sdss_workload, synthesize_stats, SdssScale,
};

use crate::session::{
    guard, AdviseRequest, IndexSuggestion, Parinda, ParindaError, SelectionMethod,
};
use parinda_parallel::{CancelToken, Parallelism};
use parinda_stream::{ConstraintStore, StreamAccumulator, WEIGHT_SCALE};
use parinda_trace::{Counter, Trace};

/// Largest `load laptop` row count the console accepts: beyond this the
/// generated PhotoObj data stops fitting in laptop-class memory.
pub const MAX_LAPTOP_ROWS: u64 = 10_000_000;

/// Drift (parts-per-million total variation between consecutive epoch
/// distributions) at or above which `advise auto on` re-runs the index
/// advisor after `epoch`. 100_000 ppm = 10% of the template mass moved.
pub const DRIFT_THRESHOLD_PPM: u64 = 100_000;

/// Default storage budget (MB) for streaming advice; changed with
/// `advise budget <mb>`.
pub const DEFAULT_STREAM_BUDGET_MB: u64 = 512;

/// One parsed console command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    LoadPaper,
    LoadLaptop(u64),
    LoadDdl(String),
    WorkloadSdss,
    WorkloadFile(String),
    /// `workload stats` — template clustering summary of the loaded
    /// workload (templates, statements, total weight, compression ratio).
    WorkloadStats,
    ShowTables,
    ShowIndexes,
    Describe(String),
    ShowWorkload,
    ShowDesign,
    Explain(String),
    Analyze(String),
    WhatIfIndex { name: String, table: String, columns: Vec<String> },
    WhatIfPartition { name: String, table: String, columns: Vec<String> },
    WhatIfDrop(String),
    ClearDesign,
    Eval,
    SuggestIndexes { budget_mb: u64, method: SelectionMethod },
    SuggestPartitions { replication_mb: Option<u64> },
    SuggestDrops,
    /// `threads <n|auto>` — `None` = auto-detect, `Some(n)` = fixed count.
    Threads(Option<usize>),
    ShowThreads,
    /// `budget <ms>` / `budget rounds <n>` / `budget off` — advisor
    /// budget; both `None` clears it.
    SetBudget { ms: Option<u64>, rounds: Option<usize> },
    ShowBudget,
    /// Request cooperative cancellation of the next advisor run.
    Cancel,
    /// `profile on` — start recording phase timings and counters.
    ProfileOn,
    /// `profile off` — stop recording and discard what was recorded.
    ProfileOff,
    /// `profile show` — render the recorded per-phase profile.
    ProfileShow,
    /// `feed <sql>` — stream one statement into the open epoch.
    Feed(String),
    /// `epoch` — close the epoch: decay, merge, evict, score drift (and
    /// re-advise when `advise auto on` and the drift threshold is hit).
    Epoch,
    /// `advise auto on|off` — toggle drift-triggered re-advising.
    AdviseAuto(bool),
    /// `advise budget <mb>` — storage budget for streaming advice.
    AdviseBudget(u64),
    /// `pin <index>` (alias `accept`) — force an index into every
    /// advised design; charged against the storage budget first.
    Pin(String),
    /// `ban <index>` (alias `reject`) — exclude an index from every
    /// advised design's search space.
    Ban(String),
    /// `unpin <index>` — lift a pin.
    Unpin(String),
    /// `unban <index>` — lift a ban.
    Unban(String),
    /// `drift` — last epoch-over-epoch drift vs. the re-advise threshold.
    Drift,
    Help,
    Quit,
    Empty,
}

fn usage(msg: &str) -> ParindaError {
    ParindaError::Parse(msg.to_string())
}

/// Whether replaying this command is required to reconstruct a
/// session's state. This is the daemon's journaling predicate: commands
/// for which this returns `true` are written (and fsynced) to the
/// metadata WAL *before* they are applied, so a crash-recovered session
/// replays to the identical overlay.
///
/// The streaming verbs (`feed`, `epoch`, `advise auto`, `advise
/// budget`, `pin`/`ban` and their inverses) are all journaled: the
/// accumulator's epoch counters, decayed weights, and the constraint
/// store are reconstructed exactly by replaying them in feed order.
///
/// Read-only commands (`show …`, `explain`, `eval`, the `suggest`
/// advisors, `drift`) leave no state behind and are not journaled. `cancel` is
/// deliberately excluded: it arms a one-shot token consumed by the next
/// advisor run, and replaying it would spuriously cancel the first
/// post-recovery run.
pub fn is_state_mutating(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::LoadPaper
            | Command::LoadLaptop(_)
            | Command::LoadDdl(_)
            | Command::WorkloadSdss
            | Command::WorkloadFile(_)
            | Command::WhatIfIndex { .. }
            | Command::WhatIfPartition { .. }
            | Command::WhatIfDrop(_)
            | Command::ClearDesign
            | Command::Threads(_)
            | Command::SetBudget { .. }
            | Command::ProfileOn
            | Command::ProfileOff
            | Command::Feed(_)
            | Command::Epoch
            | Command::AdviseAuto(_)
            | Command::AdviseBudget(_)
            | Command::Pin(_)
            | Command::Ban(_)
            | Command::Unpin(_)
            | Command::Unban(_)
    )
}

/// Parse one console line. Argument errors are reported as
/// [`ParindaError::Parse`]; nothing here panics on any input.
pub fn parse_command(line: &str) -> Result<Command, ParindaError> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(Command::Empty);
    }
    let words: Vec<&str> = trimmed.split_whitespace().collect();
    let lower: Vec<String> = words.iter().map(|w| w.to_ascii_lowercase()).collect();
    match lower[0].as_str() {
        "quit" | "exit" | "q" => Ok(Command::Quit),
        "help" | "?" => Ok(Command::Help),
        "load" => match lower.get(1).map(|s| s.as_str()) {
            Some("paper") => Ok(Command::LoadPaper),
            Some("laptop") => match lower.get(2) {
                None => Ok(Command::LoadLaptop(20_000)),
                Some(arg) => match arg.parse::<u64>() {
                    Ok(rows) if rows <= MAX_LAPTOP_ROWS => Ok(Command::LoadLaptop(rows)),
                    Ok(rows) => Err(usage(&format!(
                        "row count {rows} exceeds the laptop-scale maximum of {MAX_LAPTOP_ROWS}"
                    ))),
                    Err(_) => Err(usage(&format!(
                        "invalid row count `{arg}` (usage: load laptop [rows])"
                    ))),
                },
            },
            Some("ddl") => words
                .get(2)
                .map(|p| Command::LoadDdl(p.to_string()))
                .ok_or_else(|| usage("usage: load ddl <path>")),
            _ => Err(usage("usage: load paper | load laptop [rows] | load ddl <path>")),
        },
        "workload" => match lower.get(1).map(|s| s.as_str()) {
            Some("sdss") => Ok(Command::WorkloadSdss),
            Some("file") => words
                .get(2)
                .map(|p| Command::WorkloadFile(p.to_string()))
                .ok_or_else(|| usage("usage: workload file <path>")),
            Some("stats") => Ok(Command::WorkloadStats),
            _ => Err(usage("usage: workload sdss | workload file <path> | workload stats")),
        },
        "describe" | "d" => lower
            .get(1)
            .map(|t| Command::Describe(t.clone()))
            .ok_or_else(|| usage("usage: describe <table>")),
        "show" => match lower.get(1).map(|s| s.as_str()) {
            Some("tables") => Ok(Command::ShowTables),
            Some("indexes") => Ok(Command::ShowIndexes),
            Some("workload") => Ok(Command::ShowWorkload),
            Some("design") => Ok(Command::ShowDesign),
            _ => Err(usage("usage: show tables|indexes|workload|design")),
        },
        "explain" => {
            let sql = trimmed[7..].trim();
            if sql.is_empty() {
                Err(usage("usage: explain <sql>"))
            } else {
                Ok(Command::Explain(sql.to_string()))
            }
        }
        "analyze" => {
            let sql = trimmed[7..].trim();
            if sql.is_empty() {
                Err(usage("usage: analyze <sql>"))
            } else {
                Ok(Command::Analyze(sql.to_string()))
            }
        }
        "whatif" => match lower.get(1).map(|s| s.as_str()) {
            Some("index") | Some("partition") => {
                if words.len() < 5 {
                    return Err(usage(&format!(
                        "usage: whatif {} <name> <table> <col[,col...]>",
                        lower[1]
                    )));
                }
                let name = lower[2].clone();
                let table = lower[3].clone();
                let columns: Vec<String> =
                    lower[4].split(',').map(|c| c.trim().to_string()).collect();
                if lower[1] == "index" {
                    Ok(Command::WhatIfIndex { name, table, columns })
                } else {
                    Ok(Command::WhatIfPartition { name, table, columns })
                }
            }
            Some("drop") => lower
                .get(2)
                .map(|i| Command::WhatIfDrop(i.clone()))
                .ok_or_else(|| usage("usage: whatif drop <index>")),
            _ => Err(usage("usage: whatif index|partition|drop …")),
        },
        "clear" => Ok(Command::ClearDesign),
        "eval" => Ok(Command::Eval),
        "threads" => match lower.get(1).map(|s| s.as_str()) {
            None => Ok(Command::ShowThreads),
            Some("auto") => Ok(Command::Threads(None)),
            Some(n) => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(|n| Command::Threads(Some(n)))
                .ok_or_else(|| usage("usage: threads [<n>|auto]")),
        },
        "budget" => match lower.get(1).map(|s| s.as_str()) {
            None => Ok(Command::ShowBudget),
            Some("off") => Ok(Command::SetBudget { ms: None, rounds: None }),
            Some("rounds") => lower
                .get(2)
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .map(|n| Command::SetBudget { ms: None, rounds: Some(n) })
                .ok_or_else(|| usage("usage: budget rounds <n>")),
            Some(ms) => ms
                .parse::<u64>()
                .ok()
                .filter(|&ms| ms > 0)
                .map(|ms| Command::SetBudget { ms: Some(ms), rounds: None })
                .ok_or_else(|| usage("usage: budget <ms> | budget rounds <n> | budget off")),
        },
        "cancel" => Ok(Command::Cancel),
        "feed" => {
            let sql = trimmed[4..].trim();
            if sql.is_empty() {
                Err(usage("usage: feed <sql>"))
            } else {
                Ok(Command::Feed(sql.to_string()))
            }
        }
        "epoch" => Ok(Command::Epoch),
        "drift" => Ok(Command::Drift),
        "advise" => match lower.get(1).map(|s| s.as_str()) {
            Some("auto") => match lower.get(2).map(|s| s.as_str()) {
                Some("on") => Ok(Command::AdviseAuto(true)),
                Some("off") => Ok(Command::AdviseAuto(false)),
                _ => Err(usage("usage: advise auto on|off")),
            },
            Some("budget") => lower
                .get(2)
                .and_then(|n| n.parse::<u64>().ok())
                .filter(|&mb| mb > 0)
                .map(Command::AdviseBudget)
                .ok_or_else(|| usage("usage: advise budget <mb>")),
            _ => Err(usage("usage: advise auto on|off | advise budget <mb>")),
        },
        // Constraint names may be `table(col, col)` specs with spaces, so
        // take the raw remainder of the line, not a whitespace token.
        "pin" | "accept" | "ban" | "reject" | "unpin" | "unban" => {
            let verb = lower[0].as_str();
            let name = trimmed[words[0].len()..].trim();
            if name.is_empty() {
                return Err(usage(&format!("usage: {verb} <index>")));
            }
            let name = name.to_string();
            Ok(match verb {
                "pin" | "accept" => Command::Pin(name),
                "ban" | "reject" => Command::Ban(name),
                "unpin" => Command::Unpin(name),
                _ => Command::Unban(name),
            })
        }
        "profile" => match lower.get(1).map(|s| s.as_str()) {
            Some("on") => Ok(Command::ProfileOn),
            Some("off") => Ok(Command::ProfileOff),
            Some("show") | None => Ok(Command::ProfileShow),
            _ => Err(usage("usage: profile on | profile off | profile show")),
        },
        "suggest" => match lower.get(1).map(|s| s.as_str()) {
            Some("indexes") => {
                let budget_mb = lower
                    .get(2)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| usage("usage: suggest indexes <budget-mb> [ilp|greedy]"))?;
                let method = match lower.get(3).map(|s| s.as_str()) {
                    Some("greedy") => SelectionMethod::Greedy,
                    _ => SelectionMethod::Ilp,
                };
                Ok(Command::SuggestIndexes { budget_mb, method })
            }
            Some("partitions") => Ok(Command::SuggestPartitions {
                replication_mb: lower.get(2).and_then(|s| s.parse().ok()),
            }),
            Some("drops") => Ok(Command::SuggestDrops),
            _ => Err(usage(
                "usage: suggest indexes <mb> [ilp|greedy] | suggest partitions [mb] | suggest drops",
            )),
        },
        other => {
            // Escape control bytes so adversarial input cannot inject
            // terminal escape sequences through the error message.
            let shown: String = other.chars().take(40).map(|c| c.escape_debug().to_string()).collect();
            Err(usage(&format!("unknown command `{shown}` (try `help`)")))
        }
    }
}

/// The console help text.
pub const HELP: &str = "\
commands:
  load paper                 SDSS catalog at paper scale (statistics only)
  load laptop [rows]         SDSS with generated, executable data
  load ddl <path>            schema from a CREATE TABLE/INDEX script
  workload sdss              the 30 prototypical SDSS queries
  workload file <path>       statements from a file (';'-separated)
  workload stats             template clustering summary of the workload
  show tables|indexes|workload|design
  describe <table>           columns, statistics, indexes
  explain <sql>              EXPLAIN + per-node cost breakdown (and what-if
                             deltas when a design is staged)
  analyze <sql>              EXPLAIN ANALYZE (needs loaded data)
  whatif index <name> <table> <col[,col...]>
  whatif partition <name> <table> <col[,col...]>
  whatif drop <index>        simulate dropping a real index
  clear                      discard the what-if design
  eval                       evaluate the design over the workload
  suggest indexes <mb> [ilp|greedy]
  suggest partitions [replication-mb]
  suggest drops              real indexes the workload would not miss
  feed <sql>                 stream one statement into the open epoch
  epoch                      close the epoch: decay, merge, evict, score drift
  drift                      last drift score vs. the re-advise threshold
  advise auto on|off         re-advise when an epoch's drift crosses the threshold
  advise budget <mb>         storage budget for streaming advice (default 512)
  pin <index>                force an index into every advised design (alias: accept)
  ban <index>                keep an index out of every advised design (alias: reject)
  unpin|unban <index>        lift a pin / a ban
  threads [<n>|auto]         advisor thread count (also: PARINDA_THREADS)
  budget <ms>                advisor wall-clock budget (anytime best-so-far)
  budget rounds <n>          deterministic round-cap budget
  budget off                 remove the budget (exact, exhaustive runs)
  cancel                     stop the next advisor run at its first checkpoint
  profile on|off             record phase timings and pipeline counters
  profile show               per-phase time table (% of run) and counters
  quit";

/// Outcome of feeding one line to [`Console::run_line`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConsoleReply {
    /// Command executed; possibly-empty text to print.
    Output(String),
    /// Command failed; the session is untouched and stays usable.
    Error(ParindaError),
    /// The user asked to leave.
    Quit,
}

/// Interactive console state: the loaded session, workload, and the
/// DBA's current what-if design.
pub struct Console {
    session: Option<Parinda>,
    workload: Vec<parinda_sql::Select>,
    /// Per-statement weights parallel to `workload` (workload files may
    /// carry frequencies; `workload sdss` is uniform). Retained so the
    /// compression statistics and weighted advising see them.
    workload_weights: Vec<f64>,
    design: Design,
    /// Thread policy chosen with `threads`; applied to every session,
    /// including ones loaded later.
    par: Parallelism,
    /// Advisor budget chosen with `budget`; applied to every session.
    budget_ms: Option<u64>,
    budget_rounds: Option<usize>,
    /// Cancellation flag shared with every session (and the CLI's
    /// Ctrl-C handler), so it survives `load`.
    cancel: CancelToken,
    /// Observability handle chosen with `profile on|off` (or attached by
    /// the CLI's `--trace-json`); applied to every session, so it
    /// survives `load` like the thread policy and budget.
    trace: Trace,
    /// Streaming workload accumulator fed with `feed`, advanced with
    /// `epoch`. Console-owned and single-writer: the daemon's WAL
    /// serializes the mutating verbs, so no locking happens here.
    stream: StreamAccumulator,
    /// The DBA's standing pin/ban constraints, honored by every advised
    /// design (streaming and `suggest indexes`).
    constraints: ConstraintStore,
    /// `advise auto on|off`: when on, `epoch` re-advises whenever the
    /// epoch's drift reaches [`DRIFT_THRESHOLD_PPM`].
    advise_auto: bool,
    /// Storage budget for streaming advice, MB (`advise budget <mb>`).
    stream_budget_mb: u64,
    /// Templates and weights of the last streaming advise: the baseline
    /// the next advise delta-maintains its INUM model from.
    advised_templates: Option<(Vec<parinda_sql::Select>, Vec<f64>)>,
}

impl Default for Console {
    fn default() -> Self {
        Console::new()
    }
}

impl Console {
    /// An empty console (no database, no workload).
    pub fn new() -> Self {
        Console {
            session: None,
            workload: Vec::new(),
            workload_weights: Vec::new(),
            design: Design::new(),
            par: Parallelism::auto(),
            budget_ms: None,
            budget_rounds: None,
            cancel: CancelToken::new(),
            trace: Trace::disabled(),
            stream: StreamAccumulator::new(),
            constraints: ConstraintStore::new(),
            advise_auto: false,
            stream_budget_mb: DEFAULT_STREAM_BUDGET_MB,
            advised_templates: None,
        }
    }

    /// A console pre-seeded with a session (used by tests and embedders).
    pub fn with_session(session: Parinda) -> Self {
        let mut c = Console::new();
        c.install(session);
        c
    }

    /// A console over a shared engine: the session shares the engine's
    /// catalog, data, and INUM plan cache with every other console on the
    /// same engine, while this console's workload, staged design, thread
    /// policy, budgets, cancellation token, and trace stay private. This
    /// is what the server opens per connection.
    pub fn with_engine(engine: &crate::session::SharedEngine) -> Self {
        Console::with_session(engine.session())
    }

    /// The loaded session, if any.
    pub fn session(&self) -> Option<&Parinda> {
        self.session.as_ref()
    }

    /// The loaded workload.
    pub fn workload(&self) -> &[parinda_sql::Select] {
        &self.workload
    }

    /// The console's cancellation token: the CLI's Ctrl-C handler
    /// cancels this to stop the advisor in flight at its next
    /// checkpoint. It is shared with every installed session.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Replace the console's cancellation token (and the installed
    /// session's). The REPL wires every console to one process-global
    /// token behind its Ctrl-C handler; the server gives each connection
    /// its own token, so cancelling one session never degrades another.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
        if let Some(s) = self.session.as_mut() {
            s.set_cancel_token(self.cancel.clone());
        }
    }

    /// Install a freshly loaded session, carrying over the thread
    /// policy, the advisor budget, and the shared cancellation token.
    fn install(&mut self, mut session: Parinda) {
        session.set_parallelism(self.par);
        session.set_budget_ms(self.budget_ms);
        session.set_budget_rounds(self.budget_rounds);
        session.set_cancel_token(self.cancel.clone());
        session.set_trace(self.trace.clone());
        self.session = Some(session);
    }

    /// The console's observability handle (shared with the session).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Attach an observability handle (the CLI's `--trace-json` uses this
    /// to record the whole run); carried into every installed session.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
        if let Some(s) = self.session.as_mut() {
            s.set_trace(self.trace.clone());
        }
    }

    /// Render the current budget setting.
    fn budget_line(&self) -> String {
        match (self.budget_ms, self.budget_rounds) {
            (None, None) => "advisor budget: off (exhaustive runs)".into(),
            (Some(ms), None) => format!("advisor budget: {ms} ms per run"),
            (None, Some(r)) => format!("advisor budget: {r} round(s) per run"),
            (Some(ms), Some(r)) => format!("advisor budget: {ms} ms, {r} round(s) per run"),
        }
    }

    fn require_session(&self) -> Result<&Parinda, ParindaError> {
        self.session
            .as_ref()
            .ok_or_else(|| ParindaError::Catalog("no database loaded (try `load paper`)".into()))
    }

    /// Parse and run one console line. Never panics; never aborts.
    pub fn run_line(&mut self, line: &str) -> ConsoleReply {
        match parse_command(line) {
            Ok(Command::Quit) => ConsoleReply::Quit,
            Ok(cmd) => match self.run_command(cmd) {
                Ok(out) => ConsoleReply::Output(out),
                Err(e) => ConsoleReply::Error(e),
            },
            Err(e) => ConsoleReply::Error(e),
        }
    }

    /// Run one parsed command under the `catch_unwind` backstop: a panic
    /// anywhere below is contained and reported as
    /// [`ParindaError::Internal`] and the console remains usable.
    pub fn run_command(&mut self, cmd: Command) -> Result<String, ParindaError> {
        guard(|| self.dispatch(cmd))
    }

    fn dispatch(&mut self, cmd: Command) -> Result<String, ParindaError> {
        if parinda_failpoint::should_fail("core::dispatch") {
            return Err(ParindaError::Internal("failpoint core::dispatch".into()));
        }
        match cmd {
            Command::Empty => Ok(String::new()),
            Command::Help => Ok(HELP.to_string()),
            Command::Quit => Ok("bye".into()),
            Command::LoadPaper => {
                let (mut cat, tables) = sdss_catalog(SdssScale::paper());
                synthesize_stats(&mut cat, &tables);
                let n = cat.all_tables().len();
                let gb = cat.total_size_bytes() as f64 / (1u64 << 30) as f64;
                self.install(Parinda::new(cat));
                Ok(format!("loaded SDSS paper-scale catalog: {n} tables, {gb:.1} GB simulated"))
            }
            Command::LoadDdl(path) => {
                let text = std::fs::read_to_string(&path)?;
                let session = Parinda::from_ddl(&text)?;
                let n = session.catalog().all_tables().len();
                self.install(session);
                Ok(format!("loaded {n} tables from {path}"))
            }
            Command::LoadLaptop(rows) => {
                let (mut cat, tables) = sdss_catalog(SdssScale::laptop(rows));
                let mut db = parinda_storage::Database::new();
                generate_and_load(&mut cat, &mut db, &tables, 42);
                self.install(Parinda::with_database(cat, db));
                Ok(format!("loaded SDSS laptop-scale instance with {rows} PhotoObj rows"))
            }
            Command::WorkloadSdss => {
                self.workload = sdss_workload();
                self.workload_weights = vec![1.0; self.workload.len()];
                Ok(format!("workload: {} queries", self.workload.len()))
            }
            Command::WorkloadFile(path) => {
                let text = std::fs::read_to_string(&path)?;
                let wl = parse_workload(&text)?;
                self.workload = wl.queries();
                self.workload_weights = wl.weights();
                Ok(format!("workload: {} queries from {path}", self.workload.len()))
            }
            Command::WorkloadStats => {
                if self.workload.is_empty() {
                    return Ok("no workload loaded".into());
                }
                let wl = parinda_workload::Workload {
                    entries: self
                        .workload
                        .iter()
                        .zip(&self.workload_weights)
                        .map(|(q, &w)| parinda_workload::WorkloadEntry {
                            query: q.clone(),
                            weight: w,
                        })
                        .collect(),
                };
                let compressed = parinda_workload::compress_workload(&wl, &self.trace);
                Ok(format!(
                    "workload: {} statements, {} templates ({} merged), total weight {:.0}, compression {:.1}x",
                    compressed.raw_statements,
                    compressed.len(),
                    compressed.merged(),
                    compressed.raw_weight,
                    compressed.compression_ratio(),
                ))
            }
            Command::ShowTables => {
                let s = self.require_session()?;
                Ok(parinda_catalog::describe_catalog(s.catalog()))
            }
            Command::Describe(table) => {
                let s = self.require_session()?;
                let id = s
                    .catalog()
                    .table_by_name(&table)
                    .ok_or_else(|| ParindaError::Catalog(format!("unknown table {table}")))?
                    .id;
                parinda_catalog::describe_table(s.catalog(), id)
                    .ok_or_else(|| ParindaError::Internal("table vanished mid-describe".into()))
            }
            Command::ShowIndexes => {
                let s = self.require_session()?;
                let idx = s.catalog().all_indexes();
                if idx.is_empty() {
                    return Ok("no indexes".into());
                }
                let mut out = String::new();
                for i in idx {
                    let t = s.catalog().table(i.table).map(|t| t.name.clone()).unwrap_or_default();
                    let cols: Vec<String> = i
                        .key_columns
                        .iter()
                        .filter_map(|&c| {
                            s.catalog()
                                .table(i.table)
                                .and_then(|t| t.columns.get(c))
                                .map(|col| col.name.clone())
                        })
                        .collect();
                    out.push_str(&format!(
                        "{:<24} on {:<12} ({})  {} pages\n",
                        i.name,
                        t,
                        cols.join(", "),
                        i.pages
                    ));
                }
                Ok(out)
            }
            Command::ShowWorkload => {
                if self.workload.is_empty() {
                    return Ok("no workload loaded".into());
                }
                Ok(self
                    .workload
                    .iter()
                    .enumerate()
                    .map(|(i, q)| format!("Q{:02}: {q}\n", i + 1))
                    .collect())
            }
            Command::ShowDesign => {
                let mut out = String::new();
                for i in &self.design.indexes {
                    out.push_str(&format!(
                        "index     {} on {} ({})\n",
                        i.name,
                        i.table,
                        i.columns.join(", ")
                    ));
                }
                for p in &self.design.partitions {
                    out.push_str(&format!(
                        "partition {} of {} ({})\n",
                        p.name,
                        p.table,
                        p.columns.join(", ")
                    ));
                }
                for d in &self.design.drop_indexes {
                    out.push_str(&format!("drop      {d}\n"));
                }
                if out.is_empty() {
                    out = "empty design".into();
                }
                Ok(out)
            }
            Command::Threads(spec) => {
                self.par = match spec {
                    Some(n) => Parallelism::fixed(n),
                    None => Parallelism::auto(),
                };
                if let Some(s) = self.session.as_mut() {
                    s.set_parallelism(self.par);
                }
                Ok(format!("advisors will use {} thread(s)", self.par.threads()))
            }
            Command::ShowThreads => Ok(format!("advisors use {} thread(s)", self.par.threads())),
            Command::SetBudget { ms, rounds } => {
                self.budget_ms = ms;
                self.budget_rounds = rounds;
                if let Some(s) = self.session.as_mut() {
                    s.set_budget_ms(ms);
                    s.set_budget_rounds(rounds);
                }
                Ok(self.budget_line())
            }
            Command::ShowBudget => Ok(self.budget_line()),
            Command::Cancel => {
                self.cancel.cancel();
                Ok("cancellation requested: the next advisor checkpoint returns best-so-far"
                    .into())
            }
            Command::ProfileOn => {
                if !self.trace.is_enabled() {
                    self.set_trace(Trace::recording());
                }
                Ok("profiling on (see `profile show`)".into())
            }
            Command::ProfileOff => {
                self.set_trace(Trace::disabled());
                Ok("profiling off; recorded profile discarded".into())
            }
            Command::ProfileShow => {
                if !self.trace.is_enabled() {
                    return Ok("profiling is off (try `profile on`)".into());
                }
                Ok(self.trace.snapshot().render_profile())
            }
            Command::Explain(sql) => {
                self.require_session()?.explain_sql_breakdown(&sql, Some(&self.design))
            }
            Command::Analyze(sql) => {
                let s = self.require_session()?;
                let sel = parinda_sql::parse_select(&sql)?;
                let q = parinda_optimizer::bind(&sel, s.catalog())?;
                let plan = parinda_optimizer::plan_query(
                    &q,
                    s.catalog(),
                    &parinda_optimizer::CostParams::default(),
                    &parinda_optimizer::PlannerFlags::default(),
                )?;
                parinda_executor::explain_analyze(&plan, &q, s.catalog(), s.database())
                    .map_err(|e| ParindaError::Io(format!("{e} (analyze needs `load laptop`)")))
            }
            Command::WhatIfIndex { name, table, columns } => {
                let cols: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
                self.design = std::mem::take(&mut self.design)
                    .with_index(WhatIfIndex::new(&name, &table, &cols));
                // validate eagerly so typos surface now
                if let Some(sess) = &self.session {
                    if let Err(e) = self.design.apply(sess.catalog()) {
                        self.design.indexes.pop();
                        return Err(e.into());
                    }
                }
                Ok(format!("what-if index {name} added"))
            }
            Command::WhatIfPartition { name, table, columns } => {
                let cols: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
                self.design = std::mem::take(&mut self.design)
                    .with_partition(WhatIfPartition::new(&name, &table, &cols));
                if let Some(sess) = &self.session {
                    if let Err(e) = self.design.apply(sess.catalog()) {
                        self.design.partitions.pop();
                        return Err(e.into());
                    }
                }
                Ok(format!("what-if partition {name} added"))
            }
            Command::WhatIfDrop(name) => {
                self.design = std::mem::take(&mut self.design).with_drop(&name);
                if let Some(sess) = &self.session {
                    if let Err(e) = self.design.apply(sess.catalog()) {
                        self.design.drop_indexes.pop();
                        return Err(e.into());
                    }
                }
                Ok(format!("simulating DROP INDEX {name}"))
            }
            Command::ClearDesign => {
                self.design = Design::new();
                Ok("design cleared".into())
            }
            Command::Eval => {
                let s = self.require_session()?;
                if self.workload.is_empty() {
                    return Err(ParindaError::Advisor("no workload loaded".into()));
                }
                let (report, rewritten) = s.evaluate_design(&self.workload, &self.design)?;
                let mut out = report.render();
                let changed: Vec<String> = self
                    .workload
                    .iter()
                    .zip(&rewritten)
                    .filter(|(a, b)| a != b)
                    .map(|(_, b)| format!("  {b};"))
                    .collect();
                if !changed.is_empty() {
                    out.push_str("\nrewritten queries:\n");
                    out.push_str(&changed.join("\n"));
                    out.push('\n');
                }
                Ok(out)
            }
            Command::SuggestIndexes { budget_mb, method } => {
                let s = self.require_session()?;
                if self.workload.is_empty() {
                    return Err(ParindaError::Advisor("no workload loaded".into()));
                }
                let (pinned, banned) = self.standing_constraints();
                let result = s.advise(&AdviseRequest {
                    pinned: &pinned,
                    banned: &banned,
                    ..AdviseRequest::new(&self.workload, budget_mb << 20, method)
                });
                // the cancel flag is consumed by one advisor run
                self.cancel.reset();
                let sugg = result?;
                Ok(render_index_suggestion(&sugg))
            }
            Command::SuggestDrops => {
                let s = self.require_session()?;
                if self.workload.is_empty() {
                    return Err(ParindaError::Advisor("no workload loaded".into()));
                }
                let drops = s.suggest_drops(&self.workload)?;
                if drops.is_empty() {
                    return Ok("every existing index earns its keep".into());
                }
                let mut out = String::new();
                for d in drops {
                    out.push_str(&format!(
                        "DROP INDEX {};  -- on {}, reclaims {:.1} MB, workload cost unchanged\n",
                        d.index,
                        d.table,
                        d.reclaimed_bytes as f64 / (1 << 20) as f64
                    ));
                }
                Ok(out)
            }
            Command::SuggestPartitions { replication_mb } => {
                let s = self.require_session()?;
                if self.workload.is_empty() {
                    return Err(ParindaError::Advisor("no workload loaded".into()));
                }
                let config = parinda_advisor::AutoPartConfig {
                    replication_limit_bytes: replication_mb
                        .map(|mb| (mb << 20) as i64)
                        .unwrap_or(i64::MAX),
                    ..Default::default()
                };
                let result = s.suggest_partitions(&self.workload, config);
                // the cancel flag is consumed by one advisor run
                self.cancel.reset();
                let sugg = result?;
                let mut out = String::new();
                for p in &sugg.partitions {
                    out.push_str(&format!(
                        "PARTITION {} of {} ({})\n",
                        p.name,
                        p.table,
                        p.columns.join(", ")
                    ));
                }
                out.push('\n');
                out.push_str(&sugg.report.render());
                if let Some(b) = &sugg.budget {
                    out.push_str(&format!(
                        "\nDEGRADED: {b}; best-so-far design, rerun with `budget off` for the full search\n"
                    ));
                }
                Ok(out)
            }
            Command::Feed(sql) => {
                self.stream.feed(&sql)?;
                self.trace.count(Counter::StreamStatementsFed, 1);
                Ok(format!(
                    "fed: {} pending statement(s) for epoch {}",
                    self.stream.pending_statements(),
                    self.stream.epoch() + 1
                ))
            }
            Command::Epoch => {
                // clone the handle: the span guard must not hold a borrow
                // of `self` across the `&mut self` auto-advise below
                let trace = self.trace.clone();
                let _span = trace.span("epoch_advance");
                let summary = self.stream.advance_epoch(&trace)?;
                trace.count(Counter::EpochsAdvanced, 1);
                let mut out = format!(
                    "epoch {}: {} template(s) ({} arrived, {} evicted), total weight {:.2}, drift {} ppm",
                    summary.epoch,
                    summary.templates,
                    summary.arrived,
                    summary.evicted,
                    summary.total_weight_fp as f64 / WEIGHT_SCALE as f64,
                    summary.drift_ppm,
                );
                if self.advise_auto && summary.drift_ppm >= DRIFT_THRESHOLD_PPM {
                    trace.count(Counter::DriftEvents, 1);
                    out.push_str(&format!(
                        "\ndrift {} ppm >= {} ppm: re-advising\n",
                        summary.drift_ppm, DRIFT_THRESHOLD_PPM
                    ));
                    out.push_str(&self.advise_stream()?);
                }
                Ok(out)
            }
            Command::Drift => Ok(format!(
                "drift: {} ppm (re-advise threshold {} ppm, auto-advise {})\nepoch {}, {} template(s), {} pending statement(s)",
                self.stream.last_drift_ppm(),
                DRIFT_THRESHOLD_PPM,
                if self.advise_auto { "on" } else { "off" },
                self.stream.epoch(),
                self.stream.templates().len(),
                self.stream.pending_statements(),
            )),
            Command::AdviseAuto(on) => {
                self.advise_auto = on;
                Ok(if on {
                    format!(
                        "auto-advise on: `epoch` re-advises when drift >= {DRIFT_THRESHOLD_PPM} ppm"
                    )
                } else {
                    "auto-advise off".into()
                })
            }
            Command::AdviseBudget(mb) => {
                self.stream_budget_mb = mb;
                Ok(format!("streaming advisor storage budget: {mb} MB"))
            }
            Command::Pin(name) => {
                self.constraints.pin(&name)?;
                Ok(format!("pinned `{}`: forced into every advised design", name.trim()))
            }
            Command::Ban(name) => {
                self.constraints.ban(&name)?;
                Ok(format!("banned `{}`: excluded from every advised design", name.trim()))
            }
            Command::Unpin(name) => Ok(if self.constraints.unpin(&name) {
                format!("unpinned `{}`", name.trim())
            } else {
                format!("`{}` was not pinned", name.trim())
            }),
            Command::Unban(name) => Ok(if self.constraints.unban(&name) {
                format!("unbanned `{}`", name.trim())
            } else {
                format!("`{}` was not banned", name.trim())
            }),
        }
    }

    /// The DBA's standing pins and bans, as [`AdviseRequest`] takes them.
    fn standing_constraints(&self) -> (Vec<String>, Vec<String>) {
        (
            self.constraints.pinned().map(str::to_string).collect(),
            self.constraints.banned().map(str::to_string).collect(),
        )
    }

    /// Advise over the stream accumulator's current templates under the
    /// standing constraints, delta-maintaining the INUM model from the
    /// previous advised epoch's templates when there is one.
    fn advise_stream(&mut self) -> Result<String, ParindaError> {
        let s = self
            .session
            .as_ref()
            .ok_or_else(|| ParindaError::Catalog("no database loaded (try `load paper`)".into()))?;
        if self.stream.templates().is_empty() {
            return Err(ParindaError::Advisor(
                "no streamed templates to advise over (feed statements, then `epoch`)".into(),
            ));
        }
        let queries = self.stream.queries();
        let weights = self.stream.weights();
        let (pinned, banned) = self.standing_constraints();
        let result = s.advise(&AdviseRequest {
            weights: Some(&weights),
            previous: self.advised_templates.as_ref().map(|(q, w)| (q.as_slice(), w.as_slice())),
            pinned: &pinned,
            banned: &banned,
            ..AdviseRequest::new(&queries, self.stream_budget_mb << 20, SelectionMethod::Ilp)
        });
        // the cancel flag is consumed by one advisor run
        self.cancel.reset();
        let sugg = result?;
        self.advised_templates = Some((queries, weights));
        Ok(render_index_suggestion(&sugg))
    }
}

/// Render an index suggestion the way the console prints it: CREATE
/// INDEX lines, the benefit report, and the `DEGRADED:` trailer when a
/// budget interrupted the run.
fn render_index_suggestion(sugg: &IndexSuggestion) -> String {
    let mut out = String::new();
    for i in &sugg.indexes {
        out.push_str(&format!(
            "CREATE INDEX {} ON {} ({});  -- {:.1} MB\n",
            i.name,
            i.table,
            i.columns.join(", "),
            i.size_bytes as f64 / (1 << 20) as f64
        ));
    }
    out.push('\n');
    out.push_str(&sugg.report.render());
    if let Some(b) = &sugg.budget {
        out.push_str(&format!(
            "\nDEGRADED: {b}; best-so-far design, rerun with `budget off` for the full search\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_core_commands() {
        assert_eq!(parse_command("load paper").unwrap(), Command::LoadPaper);
        assert_eq!(parse_command("load laptop 5000").unwrap(), Command::LoadLaptop(5000));
        assert_eq!(parse_command("load laptop").unwrap(), Command::LoadLaptop(20_000));
        assert_eq!(parse_command("workload sdss").unwrap(), Command::WorkloadSdss);
        assert_eq!(parse_command("workload stats").unwrap(), Command::WorkloadStats);
        assert_eq!(parse_command("  quit ").unwrap(), Command::Quit);
        assert_eq!(parse_command("").unwrap(), Command::Empty);
        assert_eq!(
            parse_command("suggest indexes 2048 greedy").unwrap(),
            Command::SuggestIndexes { budget_mb: 2048, method: SelectionMethod::Greedy }
        );
    }

    /// Regression: an unparseable row count used to silently fall back to
    /// 20k rows; it must be an argument error instead.
    #[test]
    fn load_laptop_rejects_bad_row_counts() {
        let overflow = parse_command("load laptop 99999999999999999999");
        match overflow {
            Err(ParindaError::Parse(msg)) => {
                assert!(msg.contains("99999999999999999999"), "{msg}")
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
        assert!(matches!(
            parse_command("load laptop twenty"),
            Err(ParindaError::Parse(_))
        ));
        assert!(matches!(
            parse_command("load laptop 10000001"),
            Err(ParindaError::Parse(_))
        ));
        // ... and the console reports it without loading anything.
        let mut c = Console::new();
        let reply = c.run_line("load laptop 99999999999999999999");
        assert!(matches!(reply, ConsoleReply::Error(ParindaError::Parse(_))), "{reply:?}");
        assert!(c.session().is_none());
    }

    /// `workload stats` clusters the loaded statements; the 30 SDSS
    /// prototypes are distinct shapes, so nothing merges.
    #[test]
    fn workload_stats_reports_clustering() {
        let mut c = Console::new();
        assert_eq!(c.run_command(Command::WorkloadStats).unwrap(), "no workload loaded");
        c.run_command(Command::WorkloadSdss).unwrap();
        let out = c.run_command(Command::WorkloadStats).unwrap();
        assert!(out.contains("30 statements"), "{out}");
        assert!(out.contains("30 templates"), "{out}");
        assert!(out.contains("compression 1.0x"), "{out}");
    }

    #[test]
    fn parses_whatif_commands() {
        assert_eq!(
            parse_command("whatif index w1 photoobj ra,dec").unwrap(),
            Command::WhatIfIndex {
                name: "w1".into(),
                table: "photoobj".into(),
                columns: vec!["ra".into(), "dec".into()],
            }
        );
        assert_eq!(
            parse_command("whatif drop i_old").unwrap(),
            Command::WhatIfDrop("i_old".into())
        );
        assert!(parse_command("whatif index w1").is_err());
    }

    #[test]
    fn parses_threads_command() {
        assert_eq!(parse_command("threads 4").unwrap(), Command::Threads(Some(4)));
        assert_eq!(parse_command("threads auto").unwrap(), Command::Threads(None));
        assert_eq!(parse_command("threads").unwrap(), Command::ShowThreads);
        assert!(parse_command("threads 0").is_err());
        assert!(parse_command("threads many").is_err());
    }

    #[test]
    fn threads_command_sticks_across_loads() {
        let mut c = Console::new();
        c.run_command(Command::Threads(Some(2))).unwrap();
        c.run_command(Command::LoadPaper).unwrap();
        assert_eq!(c.session().unwrap().parallelism(), Parallelism::fixed(2));
        let out = c.run_command(Command::ShowThreads).unwrap();
        assert!(out.contains("2 thread"), "{out}");
    }

    #[test]
    fn explain_keeps_original_case() {
        match parse_command("explain SELECT ra FROM photoobj").unwrap() {
            Command::Explain(sql) => assert_eq!(sql, "SELECT ra FROM photoobj"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_commands_error() {
        assert!(parse_command("frobnicate").is_err());
        assert!(parse_command("load mars").is_err());
    }

    #[test]
    fn console_flow_paper_scale() {
        let mut c = Console::new();
        assert!(c.run_command(Command::Eval).is_err(), "needs a database");
        c.run_command(Command::LoadPaper).unwrap();
        c.run_command(Command::WorkloadSdss).unwrap();
        c.run_command(Command::WhatIfIndex {
            name: "w_objid".into(),
            table: "photoobj".into(),
            columns: vec!["objid".into()],
        })
        .unwrap();
        let out = c.run_command(Command::Eval).unwrap();
        assert!(out.contains("average benefit"), "{out}");
        let out = c.run_command(Command::ShowDesign).unwrap();
        assert!(out.contains("w_objid"));
        c.run_command(Command::ClearDesign).unwrap();
        assert_eq!(c.run_command(Command::ShowDesign).unwrap(), "empty design");
    }

    #[test]
    fn console_rejects_bad_whatif_eagerly() {
        let mut c = Console::new();
        c.run_command(Command::LoadPaper).unwrap();
        let r = c.run_command(Command::WhatIfIndex {
            name: "w".into(),
            table: "photoobj".into(),
            columns: vec!["no_such_column".into()],
        });
        assert!(r.is_err());
        // the bad feature must not linger in the design
        assert_eq!(c.run_command(Command::ShowDesign).unwrap(), "empty design");
    }

    /// The backstop: a panic below dispatch becomes a typed internal
    /// error and the console survives to run the next command.
    #[test]
    fn dispatch_contains_panics() {
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = guard::<String>(|| panic!("injected dispatch panic"));
        std::panic::set_hook(quiet);
        assert_eq!(r, Err(ParindaError::Internal("injected dispatch panic".into())));

        let mut c = Console::new();
        c.run_command(Command::LoadPaper).unwrap();
        let out = c.run_command(Command::ShowTables).unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn run_line_quit_and_errors() {
        let mut c = Console::new();
        assert_eq!(c.run_line("quit"), ConsoleReply::Quit);
        assert!(matches!(c.run_line("frobnicate"), ConsoleReply::Error(ParindaError::Parse(_))));
        assert!(matches!(c.run_line("   "), ConsoleReply::Output(ref s) if s.is_empty()));
    }
}
