//! The AutoPart algorithm (paper §3.3): iterative vertical-partitioning
//! selection using the what-if table component.
//!
//! 1. Determine atomic fragments from the workload.
//! 2. Selected fragments := atomic fragments.
//! 3. Loop: generate composite fragments by combining selected fragments
//!    with atomic/selected fragments; rewrite the workload; evaluate every
//!    candidate design with what-if partitions; keep the best improvement
//!    that fits the replication constraint; stop when no improvement.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use parinda_catalog::{Catalog, MetadataProvider, TableId};
use parinda_optimizer::{bind, plan_query, CostParams, PlannerFlags};
use parinda_parallel::{par_map, par_map_indexed, BudgetReport, Parallelism, RunCtx};
use parinda_sql::Select;
use parinda_trace::{Counter, Trace};

use crate::fragments::{atomic_fragments, replication_overhead, Fragment};
use crate::rewrite::{fragment_cover, used_columns, PartitionDesign};
use crate::whatif_design::WhatIfDesign;

/// AutoPart configuration.
#[derive(Debug, Clone, Copy)]
pub struct AutoPartConfig {
    /// Extra bytes the partitioned layout may occupy beyond the original
    /// tables (replicated PKs / columns) — the paper's "maximum space taken
    /// by replicated columns" constraint.
    pub replication_limit_bytes: i64,
    /// Safety cap on improvement iterations.
    pub max_iterations: usize,
    /// Improvement threshold: stop when the best candidate improves the
    /// workload cost by less than this fraction.
    pub min_improvement: f64,
}

impl Default for AutoPartConfig {
    fn default() -> Self {
        AutoPartConfig {
            replication_limit_bytes: i64::MAX,
            max_iterations: 32,
            min_improvement: 1e-4,
        }
    }
}

/// Result of partition suggestion.
#[derive(Debug, Clone)]
pub struct PartitionSuggestion {
    /// The selected fragments.
    pub design: PartitionDesign,
    /// Workload cost on the original design.
    pub cost_before: f64,
    /// Workload cost on the partitioned design.
    pub cost_after: f64,
    /// Per-query (before, after) costs.
    pub per_query: Vec<(f64, f64)>,
    /// The rewritten workload (original statement when rewriting was not
    /// possible or not beneficial for that query).
    pub rewritten: Vec<Select>,
    /// Improvement iterations executed.
    pub iterations: usize,
    /// Did a budget (deadline, round cap, or cancellation) stop the
    /// improvement loop early? The design is still valid — the best one
    /// found before the budget expired.
    pub degraded: bool,
    /// How far the run got, when `degraded` is set.
    pub budget: Option<BudgetReport>,
}

impl PartitionSuggestion {
    /// Average workload speedup factor.
    pub fn speedup(&self) -> f64 {
        if self.cost_after <= 0.0 {
            return 1.0;
        }
        self.cost_before / self.cost_after
    }
}

/// Advisor errors.
#[derive(Debug, Clone, PartialEq)]
pub enum AdvisorError {
    Bind(usize, String),
    Plan(usize, String),
}

impl std::fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdvisorError::Bind(q, e) => write!(f, "query {q}: {e}"),
            AdvisorError::Plan(q, e) => write!(f, "query {q}: {e}"),
        }
    }
}

impl std::error::Error for AdvisorError {}

/// Run AutoPart over a workload under `ctx`.
///
/// Each round's candidate designs are costed concurrently on `ctx.par`:
/// every per-query cost the memo lacks is planned once, by the first
/// candidate that needs it; costs are pure, and both the memo merge and
/// the round-winner selection happen on the caller's thread in candidate
/// order, so the suggested design is identical at any thread count.
///
/// `ctx.budget` is checked at the top of every improvement round (a round
/// cap counts improvement rounds), and an interrupted run returns the
/// best design found so far, flagged `degraded: true`. The run records an
/// `autopart_rounds` span (plus one `autopart_rounds/round` span per
/// improvement round) in `ctx.trace` and counts candidate designs
/// evaluated. Tracing never influences the suggested design.
pub fn suggest_partitions(
    catalog: &Catalog,
    workload: &[Select],
    config: AutoPartConfig,
    ctx: &RunCtx,
) -> Result<PartitionSuggestion, AdvisorError> {
    let (par, budget, trace) = (ctx.par, &ctx.budget, &ctx.trace);
    let _span = trace.span("autopart_rounds");
    let params = CostParams::default();
    let flags = PlannerFlags::default();

    // Baseline costs: every query binds and plans independently.
    let prepared = par_map_indexed(par, workload.len(), |i| {
        let q = bind(&workload[i], catalog).map_err(|e| AdvisorError::Bind(i, e.to_string()))?;
        let p = plan_query(&q, catalog, &params, &flags)
            .map_err(|e| AdvisorError::Plan(i, e.to_string()))?;
        Ok::<_, AdvisorError>((q, p.cost.total))
    });
    let mut bound = Vec::with_capacity(workload.len());
    let mut base_costs = Vec::with_capacity(workload.len());
    for r in prepared {
        let (q, c) = r?;
        bound.push(q);
        base_costs.push(c);
    }
    let cost_before: f64 = base_costs.iter().sum();

    // Atomic fragments.
    let atoms = atomic_fragments(&bound, catalog);

    // Only partition tables that actually split into >1 fragment.
    let mut selected: Vec<Fragment> = Vec::new();
    for table in atoms.iter().map(|f| f.table).collect::<BTreeSet<_>>() {
        let of_table: Vec<&Fragment> = atoms.iter().filter(|f| f.table == table).collect();
        if of_table.len() > 1 {
            selected.extend(of_table.into_iter().cloned());
        }
    }

    if selected.is_empty() {
        // Nothing worth partitioning: report the identity design.
        return Ok(PartitionSuggestion {
            design: PartitionDesign::default(),
            cost_before,
            cost_after: cost_before,
            per_query: base_costs.iter().map(|&c| (c, c)).collect(),
            rewritten: workload.to_vec(),
            iterations: 0,
            degraded: false,
            budget: None,
        });
    }

    let atoms_by_table = |t: TableId| -> Vec<&Fragment> {
        atoms.iter().filter(|f| f.table == t).collect()
    };

    // Evaluate the starting (atomic) design.
    let reads = workload.iter().map(|sel| query_reads(sel, catalog)).collect();
    let run = EvalCtx {
        catalog,
        workload,
        params,
        flags,
        base_costs,
        reads,
        #[cfg(test)]
        audit: tests::current_audit(),
    };
    let mut memo: CostMemo = CostMemo::new();
    let mut best_total = run.design_costs(std::slice::from_ref(&selected), &mut memo, par)[0];
    let mut iterations = 0usize;

    // Improvement loop. When the current design exceeds the replication
    // budget (atomic fragmentations of wide tables usually do: every
    // fragment replicates the PK and pays its own tuple headers), the loop
    // first *merges toward the budget*, accepting the cheapest
    // overhead-reducing candidate each round; once within budget it only
    // accepts cost improvements that stay within budget.
    let mut budget_stopped = false;
    while iterations < config.max_iterations {
        // Anytime contract: check the budget at the round boundary and
        // keep the best design found so far.
        if budget.exceeded(iterations) {
            budget_stopped = true;
            break;
        }
        iterations += 1;
        let _round = trace.span("autopart_rounds/round");
        let mut improved = false;
        let mut round_best: Option<(Vec<Fragment>, f64)> = None;
        let cur_overhead = replication_overhead(&selected, catalog);
        let over_budget = cur_overhead > config.replication_limit_bytes;

        // Candidate moves: merge any two selected fragments of a table, or
        // merge a selected fragment with an atomic fragment.
        let mut candidates: Vec<Vec<Fragment>> = Vec::new();
        for i in 0..selected.len() {
            for j in (i + 1)..selected.len() {
                if selected[i].table == selected[j].table {
                    let Some(merged) = selected[i].union(&selected[j]) else { continue };
                    let mut next = selected.clone();
                    next.retain(|f| *f != selected[i] && *f != selected[j]);
                    next.push(merged);
                    candidates.push(next);
                }
            }
            for atom in atoms_by_table(selected[i].table) {
                if !selected[i].covers(atom.columns.iter().copied()) {
                    let Some(merged) = selected[i].union(atom) else { continue };
                    if !selected.contains(&merged) {
                        let mut next = selected.clone();
                        // subsumed fragments are dropped
                        next.retain(|f| {
                            !(f.table == merged.table
                                && merged.covers(f.columns.iter().copied()))
                        });
                        next.push(merged.clone());
                        candidates.push(next);
                    }
                }
            }
        }
        // When over budget, also consider un-partitioning a whole table.
        if over_budget {
            let tables: BTreeSet<TableId> =
                selected.iter().map(|f| f.table).collect();
            for t in tables {
                let rest: Vec<Fragment> =
                    selected.iter().filter(|f| f.table != t).cloned().collect();
                candidates.push(rest);
            }
        }
        for c in &mut candidates {
            c.sort();
        }
        candidates.sort();
        candidates.dedup();

        // Constraint pre-filter is cheap; the surviving designs cost real
        // planner work, so it fans out over the pool. The winner scan runs
        // here, in candidate order, exactly as the sequential loop would.
        let viable: Vec<Vec<Fragment>> = candidates
            .into_iter()
            .filter(|cand| {
                let overhead = replication_overhead(cand, catalog);
                if over_budget {
                    // must make progress toward the budget
                    overhead < cur_overhead
                } else {
                    overhead <= config.replication_limit_bytes
                }
            })
            .collect();
        trace.count(Counter::CandidatesEvaluated, viable.len() as u64);
        let totals = run.design_costs(&viable, &mut memo, par);
        for (cand, total) in viable.into_iter().zip(totals) {
            let acceptable = if over_budget {
                true // any overhead-reducing move; pick the cheapest below
            } else {
                total < best_total * (1.0 - config.min_improvement)
            };
            if acceptable
                && round_best.as_ref().map(|(_, b)| total < *b).unwrap_or(true)
            {
                round_best = Some((cand, total));
            }
        }

        if let Some((cand, total)) = round_best {
            selected = cand;
            best_total = total;
            improved = true;
        }
        if !improved {
            if over_budget {
                // cannot reach the budget: give up on partitioning entirely
                selected.clear();
            }
            break;
        }
    }

    // Never hand back a design that violates the constraint.
    if replication_overhead(&selected, catalog) > config.replication_limit_bytes {
        selected.clear();
    }

    // Full evaluation (with rewrites) only for the final design.
    let all: Vec<usize> = (0..workload.len()).collect();
    let (mut design, evaluated) = run.evaluate(&selected, &all);
    let mut cost_after = 0.0;
    let mut per_query = Vec::with_capacity(workload.len());
    let mut rewritten = Vec::with_capacity(workload.len());
    for ((sel, &before), (after, rw)) in workload.iter().zip(&run.base_costs).zip(evaluated) {
        cost_after += after;
        per_query.push((before, after));
        rewritten.push(rw.unwrap_or_else(|| sel.clone()));
    }

    // Drop fragments no rewritten query references: they add replication
    // without benefit (the costs are unaffected since no plan uses them).
    let used: BTreeSet<&str> = rewritten
        .iter()
        .flat_map(|rw| rw.from.iter().map(|t| t.name.as_str()))
        .collect();
    design.fragments.retain(|nf| used.contains(nf.name.as_str()));

    let degraded = budget_stopped || budget.interrupted();
    Ok(PartitionSuggestion {
        design,
        cost_before,
        cost_after,
        per_query,
        rewritten,
        iterations,
        degraded,
        budget: degraded
            .then(|| budget.report(iterations, config.max_iterations.saturating_sub(iterations))),
    })
}

/// Memo for the selection loop: per-query cost keyed by the query's
/// cover, the fragments its rewrite reads (one ordered list per FROM
/// entry, empty where that table is not partitioned). The cover fixes the
/// rewritten statement and the statistics it is planned against up to the
/// names and hypothetical table ids the simulation gives its fragments
/// (`{table}_p{n}` by position in the simulated set, which may be a subset
/// of the candidate); the key rests on a plan's cost not depending on
/// either, which the audit in `tests` checks. Most candidates in a round
/// leave a query's cover as it was, so most lookups hit.
type CostMemo = HashMap<CoverKey, f64>;

/// A query index and its cover.
type CoverKey = (usize, Vec<Vec<Fragment>>);

/// One query's cover in a candidate design, as a memo key, with the
/// positions in the candidate of the fragments it reads.
type QueryCover = (CoverKey, Vec<usize>);

/// A candidate's cover per query (`None` where the query keeps its base
/// cost); `None` for a candidate whose costing fault was injected.
type DesignCovers = Option<Vec<Option<QueryCover>>>;

/// Per FROM entry of `sel`: its table and the columns the rewriter finds
/// it reading. `None` when the rewriter cannot resolve the statement, so
/// no fragmentation changes its cost.
fn query_reads(sel: &Select, catalog: &Catalog) -> Option<Vec<(TableId, BTreeSet<usize>)>> {
    let rels = used_columns(sel, catalog).ok()?;
    Some(rels.into_iter().map(|r| (r.table, r.used)).collect())
}

/// What every design evaluation of one AutoPart run reads.
struct EvalCtx<'a> {
    catalog: &'a Catalog,
    workload: &'a [Select],
    params: CostParams,
    flags: PlannerFlags,
    /// Per query: its cost on the original design, the bar a rewrite must
    /// beat.
    base_costs: Vec<f64>,
    /// Per query, what [`query_reads`] found.
    reads: Vec<Option<Vec<(TableId, BTreeSet<usize>)>>>,
    #[cfg(test)]
    audit: Option<std::sync::Arc<tests::Audit>>,
}

/// One table's fragments in a candidate design, in candidate order, with
/// their positions in the candidate.
type TableFragments<'f> = (Vec<usize>, Vec<&'f Fragment>);

impl EvalCtx<'_> {
    /// Per FROM entry of query `qi`, the positions in `fragments` of the
    /// fragments its rewrite reads, in join order; `by_table` groups
    /// `fragments` by table. `None` when the query keeps its base cost: it
    /// reads no fragment, a column it reads has no covering fragment, or
    /// the rewriter cannot resolve it.
    fn cover(
        &self,
        qi: usize,
        by_table: &BTreeMap<TableId, TableFragments<'_>>,
    ) -> Option<Vec<Vec<usize>>> {
        let reads = self.reads[qi].as_ref()?;
        let mut cover = Vec::with_capacity(reads.len());
        for (table, used) in reads {
            let Some((positions, frags)) = by_table.get(table) else {
                cover.push(Vec::new());
                continue;
            };
            let pk = &self.catalog.table(*table)?.primary_key;
            let chosen = fragment_cover(frags, pk, used).ok()?;
            cover.push(chosen.into_iter().map(|i| positions[i]).collect());
        }
        cover.iter().any(|c| !c.is_empty()).then_some(cover)
    }

    /// Per query, its cover under `fragments`.
    fn covers(&self, fragments: &[Fragment]) -> DesignCovers {
        if parinda_failpoint::should_fail("advisor::autopart_eval") {
            // Injected fault: this candidate design looks infinitely bad, so
            // the round keeps whatever real evaluations it has.
            return None;
        }
        let mut by_table: BTreeMap<TableId, TableFragments> = BTreeMap::new();
        for (i, f) in fragments.iter().enumerate() {
            let (positions, frags) = by_table.entry(f.table).or_default();
            positions.push(i);
            frags.push(f);
        }
        let covers = (0..self.workload.len())
            .map(|qi| {
                let cover = self.cover(qi, &by_table)?;
                let key = cover
                    .iter()
                    .map(|c| c.iter().map(|&i| fragments[i].clone()).collect())
                    .collect();
                Some(((qi, key), cover.into_iter().flatten().collect()))
            })
            .collect();
        Some(covers)
    }

    /// Search-time costs of candidate designs, in order. Covers are found
    /// without rewriting or simulating anything; each (query, cover) key
    /// missing from `memo` is planned once, by the first design that reads
    /// it, and added to `memo`. A design simulates only the covers it
    /// plans, in candidate order: the rewriter's greedy cover over that
    /// ordered subset picks the same fragments as over the whole design,
    /// because each pick is in the subset and is still the last maximum
    /// there. A memo value is therefore a pure function of its key (up to
    /// fragment names, see [`CostMemo`]), and the costs do not depend on
    /// the thread count.
    fn design_costs(
        &self,
        designs: &[Vec<Fragment>],
        memo: &mut CostMemo,
        par: Parallelism,
    ) -> Vec<f64> {
        let covers: Vec<DesignCovers> = par_map(par, designs, |d| self.covers(d));

        // Per design, the queries whose keys it is the first to miss.
        let mut claimed: HashSet<&CoverKey> = HashSet::new();
        let mut work: Vec<(usize, Vec<usize>)> = Vec::new();
        for (di, design) in covers.iter().enumerate() {
            let missed: Vec<usize> = design
                .iter()
                .flatten()
                .flatten()
                .filter(|(key, _)| !memo.contains_key(key) && claimed.insert(key))
                .map(|((qi, _), _)| *qi)
                .collect();
            if !missed.is_empty() {
                work.push((di, missed));
            }
        }
        let planned = par_map(par, &work, |(di, missed)| {
            let design = &designs[*di];
            let of_query = covers[*di].as_deref().unwrap_or_default();
            let mut simulate = vec![false; design.len()];
            for &qi in missed {
                for &i in of_query[qi].iter().flat_map(|(_, positions)| positions) {
                    simulate[i] = true;
                }
            }
            let subset: Vec<Fragment> = design
                .iter()
                .zip(&simulate)
                .filter_map(|(f, &on)| on.then(|| f.clone()))
                .collect();
            self.evaluate(&subset, missed).1
        });
        for ((di, missed), evaluated) in work.iter().zip(planned) {
            let of_query = covers[*di].as_deref().unwrap_or_default();
            for (&qi, (cost, _)) in missed.iter().zip(evaluated) {
                if let Some((key, _)) = &of_query[qi] {
                    memo.insert(key.clone(), cost);
                }
            }
        }

        let costs = |of_query: &[Option<QueryCover>]| -> Vec<f64> {
            of_query
                .iter()
                .zip(&self.base_costs)
                .map(|(cover, &base)| cover.as_ref().map_or(base, |(key, _)| memo[key]))
                .collect()
        };
        #[cfg(test)]
        if let Some(audit) = &self.audit {
            audit.count(&covers, work.iter().map(|(_, missed)| missed.len()).sum());
            for (design, of_query) in designs.iter().zip(&covers) {
                if let Some(of_query) = of_query {
                    audit.check(self, design, &costs(of_query));
                }
            }
        }
        covers
            .iter()
            .map(|of_query| of_query.as_deref().map_or(f64::INFINITY, |q| costs(q).iter().sum()))
            .collect()
    }

    /// Simulate a fragment set and cost `subset` of the workload under it:
    /// per query (in subset order) the cost, and the rewritten statement
    /// when the rewrite beats the original design's cost (otherwise the
    /// original statement and cost stand). Also returns the simulated
    /// partitions, named as the rewritten statements reference them.
    fn evaluate(
        &self,
        fragments: &[Fragment],
        subset: &[usize],
    ) -> (PartitionDesign, Vec<(f64, Option<Select>)>) {
        let whatif = WhatIfDesign::from_fragments(self.catalog, fragments);
        // AutoPart's own plans are not counted as optimizer invocations;
        // the console golden pins a count that excludes them.
        let uncounted = Trace::disabled();
        let evaluated = subset
            .iter()
            .map(|&i| {
                let base = self.base_costs[i];
                let sel = &self.workload[i];
                match whatif.cheaper_rewrite(sel, &self.params, &self.flags, base, &uncounted) {
                    Some((rw, _, p)) => (p.cost.total, Some(rw)),
                    None => (base, None),
                }
            })
            .collect();
        (whatif.partitions, evaluated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    use parinda_workload::{
        retail_catalog, retail_load, retail_workload, sdss_catalog, sdss_workload,
        synthesize_stats, SdssScale,
    };

    /// The memo-key audit. Every cost a candidate evaluation hands out —
    /// memo hits, fresh entries and base-cost shortcuts alike — is checked
    /// bit for bit against the cost the search used before its memo was
    /// keyed by cover. That search keyed a query by every fragment of its
    /// tables that overlaps the columns it needs, and costed a missed key
    /// by rewriting and planning the query against the whole candidate
    /// simulated; `old` replays exactly that memo.
    pub(super) struct Audit {
        /// Per query: its tables and the columns it needs of each.
        tables: Vec<Vec<(TableId, Vec<usize>)>>,
        old: Mutex<HashMap<(usize, Vec<Fragment>), f64>>,
        lookups: AtomicUsize,
        plans: AtomicUsize,
    }

    thread_local! {
        static CURRENT: RefCell<Option<Arc<Audit>>> = const { RefCell::new(None) };
    }

    /// The audit the calling thread installed, captured by each run's
    /// `EvalCtx`.
    pub(super) fn current_audit() -> Option<Arc<Audit>> {
        CURRENT.with(|a| a.borrow().clone())
    }

    impl Audit {
        fn new(catalog: &Catalog, workload: &[Select]) -> Self {
            let tables = workload
                .iter()
                .map(|sel| {
                    let q = bind(sel, catalog).expect("workload binds");
                    let mut t: Vec<(TableId, Vec<usize>)> =
                        q.rels.iter().map(|r| (r.table, r.needed_columns.clone())).collect();
                    t.sort();
                    t.dedup();
                    t
                })
                .collect();
            Audit {
                tables,
                old: Mutex::default(),
                lookups: AtomicUsize::new(0),
                plans: AtomicUsize::new(0),
            }
        }

        /// One round's lookups and the plans it ran for the keys it missed.
        pub(super) fn count(&self, covers: &[DesignCovers], plans: usize) {
            let lookups: usize = covers.iter().flatten().map(Vec::len).sum();
            self.lookups.fetch_add(lookups, Ordering::Relaxed);
            self.plans.fetch_add(plans, Ordering::Relaxed);
        }

        /// Check one design's per-query costs.
        pub(super) fn check(&self, run: &EvalCtx<'_>, fragments: &[Fragment], costs: &[f64]) {
            let keys: Vec<(usize, Vec<Fragment>)> = self
                .tables
                .iter()
                .enumerate()
                .map(|(qi, tables)| {
                    let mut key: Vec<Fragment> = fragments
                        .iter()
                        .filter(|f| {
                            tables.iter().any(|(t, needed)| {
                                *t == f.table && needed.iter().any(|c| f.columns.contains(c))
                            })
                        })
                        .cloned()
                        .collect();
                    key.sort();
                    (qi, key)
                })
                .collect();
            let mut old = self.old.lock().expect("audit memo");
            let missing: Vec<_> = keys.iter().filter(|k| !old.contains_key(*k)).cloned().collect();
            if !missing.is_empty() {
                let whatif = WhatIfDesign::from_fragments(run.catalog, fragments);
                let off = Trace::disabled();
                for key in missing {
                    let (qi, base) = (key.0, run.base_costs[key.0]);
                    let cost = whatif
                        .cheaper_rewrite(&run.workload[qi], &run.params, &run.flags, base, &off)
                        .map_or(base, |(_, _, p)| p.cost.total);
                    old.insert(key, cost);
                }
            }
            for (key, &cost) in keys.iter().zip(costs) {
                let full = old[key];
                assert_eq!(
                    cost.to_bits(),
                    full.to_bits(),
                    "query {} under {fragments:?}: memo {cost}, whole design {full}",
                    key.0
                );
            }
        }
    }

    /// Run AutoPart under a fresh audit; returns the suggestion and the
    /// audit's (lookups, hits, plans).
    fn audited(
        catalog: &Catalog,
        workload: &[Select],
        config: AutoPartConfig,
        threads: usize,
    ) -> (PartitionSuggestion, [usize; 3]) {
        let audit = Arc::new(Audit::new(catalog, workload));
        CURRENT.with(|a| *a.borrow_mut() = Some(audit.clone()));
        let ctx = RunCtx { par: Parallelism::fixed(threads), ..Default::default() };
        let sugg = suggest_partitions(catalog, workload, config, &ctx);
        CURRENT.with(|a| *a.borrow_mut() = None);
        let [lookups, plans] = [&audit.lookups, &audit.plans].map(|c| c.load(Ordering::Relaxed));
        let counts = [lookups, lookups - plans, plans];
        (sugg.expect("autopart"), counts)
    }

    fn budgets(catalog: &Catalog) -> [AutoPartConfig; 2] {
        let tenth = (catalog.total_size_bytes() as f64 * 0.1) as i64;
        [
            AutoPartConfig::default(),
            AutoPartConfig { replication_limit_bytes: tenth, ..Default::default() },
        ]
    }

    /// Audits one instance with and without a budget at 1 and 2 threads;
    /// the design and the plan count must not depend on the thread count.
    /// Returns the unbudgeted run's plan count.
    fn audit_instance(catalog: &Catalog, workload: &[Select]) -> usize {
        let mut unbudgeted_plans = 0;
        for (b, config) in budgets(catalog).into_iter().enumerate() {
            let (one, counts1) = audited(catalog, workload, config, 1);
            let (two, counts2) = audited(catalog, workload, config, 2);
            assert_eq!(one.design, two.design, "budget #{b}");
            assert_eq!(one.cost_after.to_bits(), two.cost_after.to_bits(), "budget #{b}");
            assert_eq!(counts1, counts2, "budget #{b}: (lookups, hits, plans)");
            assert!(counts1[1] > 0, "budget #{b}: the audit saw no memo hit");
            if b == 0 {
                unbudgeted_plans = counts1[2];
            }
        }
        unbudgeted_plans
    }

    #[test]
    fn cover_memo_matches_full_design_costs_on_sdss() {
        let (mut catalog, tables) = sdss_catalog(SdssScale::paper());
        synthesize_stats(&mut catalog, &tables);
        let plans = audit_instance(&catalog, &sdss_workload());
        // 3 603 distinct (query, cover) keys, measured with a probe on the
        // search that planned 12 985 times under the finer key
        assert!(plans <= 3_603, "SDSS-30 planned {plans} times");
    }

    #[test]
    fn cover_memo_matches_full_design_costs_on_retail() {
        let (mut catalog, tables) = retail_catalog(2_000);
        let mut db = parinda_storage::Database::new();
        retail_load(&mut catalog, &mut db, &tables, 3);
        audit_instance(&catalog, &retail_workload());
    }
}
