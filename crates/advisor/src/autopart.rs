//! The AutoPart algorithm (paper §3.3): iterative vertical-partitioning
//! selection using the what-if table component.
//!
//! 1. Determine atomic fragments from the workload.
//! 2. Selected fragments := atomic fragments.
//! 3. Loop: generate composite fragments by combining selected fragments
//!    with atomic/selected fragments; rewrite the workload; evaluate every
//!    candidate design with what-if partitions; keep the best improvement
//!    that fits the replication constraint; stop when no improvement.

use parinda_catalog::{Catalog, TableId};
use parinda_optimizer::{bind, plan_query, CostParams, PlannerFlags};
use parinda_parallel::{par_map, par_map_indexed, BudgetReport, RunCtx};
use parinda_sql::Select;
use parinda_trace::{Counter, Trace};

use crate::fragments::{atomic_fragments, replication_overhead, Fragment};
use crate::rewrite::PartitionDesign;
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
/// Each round's candidate designs are evaluated concurrently on
/// `ctx.par` against a read-only snapshot of the cost memo; per-design
/// costs are pure, and both the memo merge and the round-winner selection
/// happen on the caller's thread in candidate order, so the suggested
/// design is identical at any thread count.
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
    for table in atoms.iter().map(|f| f.table).collect::<std::collections::BTreeSet<_>>() {
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
    let qtables = query_tables(&bound);
    let run = EvalCtx { catalog, workload, params, flags, base_costs, qtables };
    let mut memo: CostMemo = CostMemo::new();
    let (mut best_total, first_entries) = run.design_cost_snapshot(&selected, &memo);
    memo.extend(first_entries);
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
            let tables: std::collections::BTreeSet<TableId> =
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
        // planner work, so they fan out over the pool. Workers read a
        // frozen memo snapshot and hand back any entries they had to
        // compute; the merge and the winner scan run here, in candidate
        // order, exactly as the sequential loop would.
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
        let memo_ref = &memo;
        trace.count(Counter::CandidatesEvaluated, viable.len() as u64);
        let evaluated: Vec<(f64, Vec<MemoEntry>)> =
            par_map(par, &viable, |cand| run.design_cost_snapshot(cand, memo_ref));
        for (cand, (total, new_entries)) in viable.into_iter().zip(evaluated) {
            for (k, v) in new_entries {
                memo.entry(k).or_insert(v);
            }
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
    let used: std::collections::BTreeSet<&str> = rewritten
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

/// Memo for the selection loop: per-query cost keyed by the fragment sets
/// of the tables that query touches. Candidate designs in one round differ
/// in a single table's fragmentation, so most lookups hit.
type CostMemo = std::collections::HashMap<(usize, Vec<Fragment>), f64>;

/// A memo entry computed by a worker against a snapshot, merged into the
/// round's memo on the caller's thread.
type MemoEntry = ((usize, Vec<Fragment>), f64);

/// Per query: the tables it references and the columns it needs of each
/// (a query's cost depends only on fragments overlapping those columns).
fn query_tables(bound: &[parinda_optimizer::BoundQuery]) -> Vec<Vec<(TableId, Vec<usize>)>> {
    bound
        .iter()
        .map(|q| {
            let mut t: Vec<(TableId, Vec<usize>)> = q
                .rels
                .iter()
                .map(|r| (r.table, r.needed_columns.clone()))
                .collect();
            t.sort();
            t.dedup();
            t
        })
        .collect()
}

/// Fragments relevant to one query: those on a referenced table whose
/// columns intersect the query's needed columns of that table.
fn relevant_fragments(
    fragments: &[Fragment],
    tables: &[(TableId, Vec<usize>)],
) -> Vec<Fragment> {
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
    key
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
    qtables: Vec<Vec<(TableId, Vec<usize>)>>,
}

impl EvalCtx<'_> {
    /// Search-time cost of a fragment set against a read-only memo keyed
    /// by the fragment sets of the tables each query touches. Returns the
    /// design's total plus the entries that were missing, so concurrent
    /// candidate evaluations can share one frozen memo and merge their
    /// discoveries afterwards. Entry values are pure functions of their
    /// keys, so the merged table does not depend on which candidate
    /// computed an entry first.
    fn design_cost_snapshot(
        &self,
        fragments: &[Fragment],
        memo: &CostMemo,
    ) -> (f64, Vec<MemoEntry>) {
        if parinda_failpoint::should_fail("advisor::autopart_eval") {
            // Injected fault: this candidate design looks infinitely bad, so
            // the round keeps whatever real evaluations it has.
            return (f64::INFINITY, Vec::new());
        }
        let mut total = 0.0;
        let mut pending: Vec<usize> = Vec::new();
        for (qi, tables) in self.qtables.iter().enumerate() {
            let key = relevant_fragments(fragments, tables);
            match memo.get(&(qi, key)) {
                Some(&c) => total += c,
                None => pending.push(qi),
            }
        }
        if pending.is_empty() {
            return (total, Vec::new());
        }
        // Evaluate the pending queries under this design in one overlay pass.
        let (_, evaluated) = self.evaluate(fragments, &pending);
        let mut new_entries = Vec::with_capacity(pending.len());
        for (&qi, (cost, _)) in pending.iter().zip(evaluated) {
            let key = relevant_fragments(fragments, &self.qtables[qi]);
            total += cost;
            new_entries.push(((qi, key), cost));
        }
        (total, new_entries)
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
