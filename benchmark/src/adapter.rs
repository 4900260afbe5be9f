//! Every call the benchmark makes into the PARINDA library lives in this
//! file, and only un-suffixed entry points are used (`build`, not
//! `build_weighted_traced`; `suggest_indexes_compressed` is the one name
//! the 100k path has). A change to a library signature therefore breaks
//! the benchmark here and nowhere else.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub use parinda::SelectionMethod as Method;
use parinda::{
    Catalog, Console, ConsoleReply, Design, IlpOptions, Parallelism, Parinda, Trace, WhatIfIndex,
};
use parinda_catalog::MetadataProvider;
use parinda_inum::{CandidateIndex, Configuration, InumModel};
use parinda_optimizer::{bind, plan_query, CostParams, PlannerFlags};
use parinda_sql::parse_select;
use parinda_stream::StreamAccumulator;
use parinda_wal::{DataDir, Record};
use parinda_whatif::{simulate_index, HypotheticalCatalog};
use parinda_workload::{
    fingerprint, parse_workload, sdss_catalog, synthesize_stats, SdssScale, Workload,
};

/// The paper-scale SDSS catalog (statistics only), as `load paper` and
/// `serve --load paper` build it.
pub fn paper_catalog() -> Catalog {
    let (mut cat, tables) = sdss_catalog(SdssScale::paper());
    synthesize_stats(&mut cat, &tables);
    cat
}

// ---------------------------------------------------------------------
// lib_advise_100k
// ---------------------------------------------------------------------

/// A parsed statement stream, ready for the 100k advise path.
pub struct Stream(Workload);

impl Stream {
    /// Parse a `;`-separated workload file text.
    pub fn parse(text: &str) -> Result<Stream, String> {
        parse_workload(text).map(Stream).map_err(|e| e.to_string())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The first `n` statements as a stream of their own.
    pub fn prefix(&self, n: usize) -> Stream {
        Stream(Workload {
            entries: self.0.entries[..n.min(self.0.len())].to_vec(),
        })
    }
}

/// One advised index, reduced to what the correctness checks compare.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AdvisedIndex {
    pub table: String,
    pub columns: Vec<String>,
    pub size_bytes: u64,
}

/// What one library advise returned.
pub struct Advice {
    pub indexes: Vec<AdvisedIndex>,
    /// Weighted workload cost without / with the advised design, as the
    /// advisor's own report states them.
    pub cost_before: f64,
    pub cost_after: f64,
    /// Weighted workload cost of the empty / the advised design when the
    /// design is staged as what-if indexes and evaluated independently.
    pub eval_before: f64,
    pub eval_after: f64,
    pub templates: usize,
    pub degraded: bool,
    pub advise_secs: f64,
    pub evaluate_secs: f64,
}

/// A fresh paper-scale session with one advisor thread and a storage
/// budget of a fifth of the database.
pub struct Session {
    session: Parinda,
    pub budget_bytes: u64,
    trace: Option<Trace>,
}

/// Span `(count, total ns)` by path and counters by name, out of the
/// program's own tracer.
pub type ProgramTrace = (BTreeMap<String, (u64, u64)>, BTreeMap<String, u64>);

impl Session {
    /// `traced` switches the program's own tracer on for this session.
    pub fn open(traced: bool) -> Session {
        let mut session = Parinda::new(paper_catalog());
        session.set_parallelism(Parallelism::fixed(1));
        let trace = traced.then(Trace::recording);
        if let Some(t) = &trace {
            session.set_trace(t.clone());
        }
        let budget_bytes = session.catalog().total_size_bytes() / 5;
        Session {
            session,
            budget_bytes,
            trace,
        }
    }

    /// Cluster the stream, advise over its templates, then stage the
    /// advised design and evaluate it over the same templates.
    pub fn advise(&self, stream: &Stream, method: Method) -> Result<Advice, String> {
        let start = Instant::now();
        let (suggestion, compressed) = self
            .session
            .suggest_indexes_compressed(
                &stream.0,
                self.budget_bytes,
                method,
                &IlpOptions::default(),
            )
            .map_err(|e| e.to_string())?;
        let advise_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut design = Design::new();
        for i in &suggestion.indexes {
            let cols: Vec<&str> = i.columns.iter().map(String::as_str).collect();
            design = design.with_index(WhatIfIndex::new(&i.name, &i.table, &cols));
        }
        let (report, _) = self
            .session
            .evaluate_design(&compressed.queries(), &design)
            .map_err(|e| e.to_string())?;
        let evaluate_secs = start.elapsed().as_secs_f64();
        let weights = compressed.weights();
        let weighted = |f: fn(&parinda::QueryBenefit) -> f64| -> f64 {
            report
                .per_query
                .iter()
                .zip(&weights)
                .map(|(q, w)| f(q) * w)
                .sum()
        };

        Ok(Advice {
            indexes: suggestion
                .indexes
                .iter()
                .map(|i| AdvisedIndex {
                    table: i.table.clone(),
                    columns: i.columns.clone(),
                    size_bytes: i.size_bytes,
                })
                .collect(),
            cost_before: suggestion.report.total_before(),
            cost_after: suggestion.report.total_after(),
            eval_before: weighted(|q| q.cost_before),
            eval_after: weighted(|q| q.cost_after),
            templates: compressed.len(),
            degraded: suggestion.degraded,
            advise_secs,
            evaluate_secs,
        })
    }

    /// What the program's tracer recorded in this session.
    pub fn program_trace(&self) -> Option<ProgramTrace> {
        let report = self.trace.as_ref()?.snapshot();
        Some((
            report
                .spans
                .into_iter()
                .map(|(p, s)| (p, (s.count, s.total_ns)))
                .collect(),
            report
                .counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ))
    }
}

// ---------------------------------------------------------------------
// Per-layer probes: direct calls into one layer's public functions, on
// the statements of the workload being run.
// ---------------------------------------------------------------------

/// Run `f` over `items` round-robin for at least `PROBE_MS`, return the
/// mean nanoseconds per call.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        if start.elapsed().as_millis() as u64 >= PROBE_MS {
            return start.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

const PROBE_MS: u64 = 150;

/// `workload`: `fingerprint()` per statement, ns.
pub fn fingerprint_ns(statements: &[String]) -> f64 {
    ns_per_call(statements, |s| {
        black_box(fingerprint(black_box(s)));
    })
}

/// `sql`: `parse_select()` per statement, µs.
pub fn parse_us(statements: &[String]) -> f64 {
    ns_per_call(statements, |s| {
        black_box(parse_select(black_box(s)).is_ok());
    }) / 1e3
}

/// `optimizer`: `bind()` + `plan_query()` per statement on the paper
/// catalog, µs.
pub fn plan_us(catalog: &Catalog, statements: &[String]) -> f64 {
    let selects: Vec<_> = statements
        .iter()
        .filter_map(|s| parse_select(s).ok())
        .collect();
    let (params, flags) = (CostParams::default(), PlannerFlags::default());
    ns_per_call(&selects, |sel| {
        if let Ok(q) = bind(sel, catalog) {
            black_box(plan_query(&q, catalog, &params, &flags).is_ok());
        }
    }) / 1e3
}

/// `whatif`: `simulate_index()` of a two-column PhotoObj index into a
/// fresh overlay, µs.
pub fn simulate_index_us(catalog: &Catalog) -> f64 {
    let def = WhatIfIndex::new("w_probe", "photoobj", &["ra", "dec"]);
    ns_per_call(&[def], |def| {
        let mut overlay = HypotheticalCatalog::new(catalog);
        black_box(simulate_index(&mut overlay, def).is_ok());
    }) / 1e3
}

/// `inum`: `InumModel::cost()` per call, ns — a model over (at most 30
/// of) the statements, costed under the empty and a one-index
/// configuration.
pub fn inum_cost_ns(catalog: &Catalog, statements: &[String]) -> f64 {
    let selects: Vec<_> = statements
        .iter()
        .filter_map(|s| parse_select(s).ok())
        .take(30)
        .collect();
    let Ok(mut model) = InumModel::build(catalog, &selects, CostParams::default()) else {
        return 0.0;
    };
    let photoobj = catalog
        .table_by_name("photoobj")
        .expect("paper catalog has photoobj");
    let ra = photoobj.column_index("ra").expect("photoobj has ra");
    let cand = model.register_candidate(CandidateIndex::new(photoobj.id, vec![ra]));
    let configs = [Configuration::empty(), Configuration::from_ids([cand])];
    let calls: Vec<(usize, &Configuration)> = (0..selects.len())
        .flat_map(|qi| configs.iter().map(move |c| (qi, c)))
        .collect();
    ns_per_call(&calls, |&(qi, config)| {
        black_box(model.cost(qi, config));
    })
}

/// `stream`: `StreamAccumulator::feed()` per statement, ns, with an
/// `advance_epoch()` every 2 000 feeds as the wire script does.
pub fn stream_feed_ns(statements: &[String]) -> f64 {
    let mut acc = StreamAccumulator::new();
    let trace = Trace::disabled();
    let mut fed = 0u64;
    ns_per_call(statements, |s| {
        black_box(acc.feed(s).is_ok());
        fed += 1;
        if fed.is_multiple_of(2000) {
            black_box(acc.advance_epoch(&trace).is_ok());
        }
    })
}

/// `durability` probe results, each per 1 000 records of the given
/// command lines.
pub struct WalProbe {
    pub append_ms_per_1k: f64,
    pub append_sync_ms_per_1k: f64,
    pub snapshot_ms: f64,
    pub recover_ms_per_1k: f64,
}

/// Journal `lines` (up to 1 000 of them, cycled to exactly 1 000) into a
/// fresh data dir under `dir`: buffered appends, then append + fsync,
/// then one snapshot of the lot, then a recovery of a 1 000-record log.
pub fn wal_probe(dir: &Path, lines: &[String]) -> std::io::Result<WalProbe> {
    let record = |i: usize| Record::Cmd {
        session: 1,
        line: lines[i % lines.len()].clone(),
    };
    let fresh = |name: &str| -> std::io::Result<_> {
        let data_dir = DataDir::open(&dir.join(name))?;
        let wal = data_dir.open_wal(&data_dir.recover()?)?;
        Ok((data_dir, wal))
    };

    let (_d, wal) = fresh("probe-append")?;
    let start = Instant::now();
    for i in 0..1000 {
        wal.append(&record(i))?;
    }
    let append_ms_per_1k = start.elapsed().as_secs_f64() * 1e3;

    let (data_dir, wal) = fresh("probe-sync")?;
    let start = Instant::now();
    for i in 0..1000 {
        let appended = wal.append(&record(i))?;
        wal.sync(appended.lsn)?;
    }
    let append_sync_ms_per_1k = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    black_box(data_dir.recover()?.replayed_records);
    let recover_ms_per_1k = start.elapsed().as_secs_f64() * 1e3;

    let mut sessions = BTreeMap::new();
    sessions.insert(
        1u64,
        (0..1000)
            .map(|i| lines[i % lines.len()].clone())
            .collect::<Vec<_>>(),
    );
    let start = Instant::now();
    wal.snapshot("paper", 2, &sessions)?;
    let snapshot_ms = start.elapsed().as_secs_f64() * 1e3;

    Ok(WalProbe {
        append_ms_per_1k,
        append_sync_ms_per_1k,
        snapshot_ms,
        recover_ms_per_1k,
    })
}

/// `core`: run console lines in-process through `Console::run_line()` on
/// a paper-scale session primed like the wire sessions; returns each
/// line's latency in seconds (`None` for a line that errored).
pub fn dispatch_secs(prime: &[String], lines: &[String]) -> Vec<Option<f64>> {
    let mut console = Console::new();
    console.run_line("load paper");
    for line in prime {
        console.run_line(line);
    }
    lines
        .iter()
        .map(|line| {
            let start = Instant::now();
            let reply = console.run_line(black_box(line));
            let secs = start.elapsed().as_secs_f64();
            matches!(reply, ConsoleReply::Output(_)).then_some(secs)
        })
        .collect()
}
