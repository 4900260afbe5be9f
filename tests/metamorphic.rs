//! Metamorphic invariants of the advisor pipeline: properties that must
//! hold between *related* runs, regardless of absolute cost values. Each
//! invariant is checked on both schemas (SDSS and retail) and, where the
//! parallel engine is involved, at 1 and 4 threads.
//!
//! 1. Adding a hypothetical index never increases any query's estimated
//!    cost (the plan space only grows).
//! 2. A superset index configuration's workload cost is never above a
//!    subset's (INUM cached model).
//! 3. Doubling a table's row statistics never decreases its seq-scan
//!    cost (cost model monotone in relation size).
//! 4. Every ILP benefit-matrix entry is non-negative (benefit = cost
//!    without the index minus cost with it).
//! 5. AutoPart's suggestion, staged as a DBA design and evaluated, costs
//!    and rewrites every query exactly as AutoPart reported (one what-if
//!    costing path under both scenarios).

use parinda::{AutoPartConfig, Parallelism, Parinda, WhatIfPartition};
use parinda_advisor::{generate_candidates, CandidateLimits};
use parinda_catalog::MetadataProvider;
use parinda_inum::{CandidateIndex, Configuration, InumModel, InumOptions};
use parinda_optimizer::{bind, plan_query, CostParams, PlannerFlags};
use parinda_parallel::RunCtx;
use parinda_whatif::{Design, WhatIfIndex};
use parinda_workload::{
    retail_catalog, retail_load, retail_workload, sdss_catalog, sdss_workload, synthesize_stats,
    SdssScale,
};

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Relative slack for cross-plan float comparisons: the invariant is
/// about plan *choice*, identical shared plans cost bit-identically, so
/// only a hair of slack is justified.
const EPS: f64 = 1e-9;

fn sdss_session() -> Parinda {
    let (mut cat, tables) = sdss_catalog(SdssScale::paper());
    synthesize_stats(&mut cat, &tables);
    Parinda::new(cat)
}

fn retail_session() -> Parinda {
    let (mut cat, tables) = retail_catalog(2_000);
    let mut db = parinda::Database::new();
    retail_load(&mut cat, &mut db, &tables, 3);
    Parinda::with_database(cat, db)
}

fn schemas() -> [(&'static str, fn() -> Parinda, Vec<parinda::Select>); 2] {
    [
        ("sdss", sdss_session as fn() -> Parinda, sdss_workload()),
        ("retail", retail_session as fn() -> Parinda, retail_workload()),
    ]
}

/// Candidate indexes for a workload, as `(CandidateIndex, WhatIfIndex)`
/// pairs so both the INUM model and the planner-overlay checks can use
/// the same pool.
fn candidate_pool(
    session: &Parinda,
    workload: &[parinda::Select],
    cap: usize,
) -> Vec<(CandidateIndex, WhatIfIndex)> {
    let model =
        InumModel::build(session.catalog(), workload, CostParams::default()).expect("inum");
    let cands = generate_candidates(model.queries(), CandidateLimits::default());
    cands
        .into_iter()
        .take(cap)
        .enumerate()
        .filter_map(|(i, c)| {
            let table = session.catalog().table(c.table)?;
            let cols: Vec<String> = c
                .columns
                .iter()
                .filter_map(|&p| table.columns.get(p).map(|col| col.name.clone()))
                .collect();
            if cols.len() != c.columns.len() {
                return None;
            }
            let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
            let w = WhatIfIndex::new(format!("meta_w{i}"), &table.name, &col_refs);
            Some((c, w))
        })
        .collect()
}

/// Invariant 1: a hypothetical index never increases any query's
/// estimated cost — the optimizer picks the min over a superset of
/// access paths.
#[test]
fn hypothetical_index_never_increases_query_cost() {
    for (schema, mk, wl) in schemas() {
        let session = mk();
        let params = CostParams::default();
        let flags = PlannerFlags::default();
        let pool = candidate_pool(&session, &wl, 8);
        assert!(!pool.is_empty(), "{schema}: candidate pool must not be empty");
        for (qi, sel) in wl.iter().enumerate() {
            let q = bind(sel, session.catalog()).expect("bind");
            let base = plan_query(&q, session.catalog(), &params, &flags).expect("plan");
            for (_, w) in &pool {
                let design = Design::new().with_index(w.clone());
                let overlay = design.apply(session.catalog()).expect("overlay");
                let qh = bind(sel, &overlay).expect("bind overlay");
                let ph = plan_query(&qh, &overlay, &params, &flags).expect("plan overlay");
                assert!(
                    ph.cost.total <= base.cost.total * (1.0 + EPS),
                    "{schema} Q{qi}: hypo index {} raised cost {} -> {}",
                    w.name,
                    base.cost.total,
                    ph.cost.total
                );
            }
        }
    }
}

/// Invariant 2: workload cost is monotone non-increasing in the index
/// configuration (superset never costs more than subset), at 1 and 4
/// threads.
#[test]
fn superset_configuration_never_costs_more() {
    for (schema, mk, wl) in schemas() {
        for threads in THREAD_COUNTS {
            let session = mk();
            let mut model = InumModel::build_in(
                session.catalog(),
                &wl,
                None,
                CostParams::default(),
                InumOptions::default(),
                None,
                &RunCtx { par: Parallelism::fixed(threads), ..RunCtx::default() },
            )
            .expect("inum");
            let pool = candidate_pool(&session, &wl, 6);
            let ids: Vec<_> =
                pool.iter().map(|(c, _)| model.register_candidate(c.clone())).collect();
            let n = ids.len().min(6) as u32;
            for mask in 0..(1u32 << n) {
                let cfg = |m: u32| {
                    Configuration::from_ids(
                        ids.iter()
                            .enumerate()
                            .filter(|(i, _)| m & (1 << i) != 0)
                            .map(|(_, &id)| id),
                    )
                };
                let sub_cost = model.workload_cost(&cfg(mask));
                for bit in 0..n {
                    if mask & (1 << bit) != 0 {
                        continue;
                    }
                    let sup_cost = model.workload_cost(&cfg(mask | (1 << bit)));
                    assert!(
                        sup_cost <= sub_cost * (1.0 + EPS),
                        "{schema}@{threads}t: superset mask {:b} costs {} > subset {:b} at {}",
                        mask | (1 << bit),
                        sup_cost,
                        mask,
                        sub_cost
                    );
                }
            }
        }
    }
}

/// Invariant 3: doubling a table's row statistics never decreases its
/// seq-scan cost (more pages, more tuples — strictly monotone inputs to
/// the cost model).
#[test]
fn doubling_row_stats_never_decreases_seq_scan_cost() {
    for (schema, mk, _) in schemas() {
        let session = mk();
        let params = CostParams::default();
        // forbid index paths so the plan is the bare Seq Scan
        let flags = PlannerFlags { enable_indexscan: false, ..Default::default() };
        let tables: Vec<_> =
            session.catalog().all_tables().iter().map(|t| (t.id, t.name.clone())).collect();
        for (tid, name) in tables {
            let first_col = match session.catalog().table(tid).and_then(|t| t.columns.first()) {
                Some(c) => c.name.clone(),
                None => continue,
            };
            let sql = format!("SELECT {first_col} FROM {name}");
            let sel = parinda::parse_select(&sql).expect("parse");
            let cost_at = |session: &Parinda| {
                let q = bind(&sel, session.catalog()).expect("bind");
                plan_query(&q, session.catalog(), &params, &flags).expect("plan").cost.total
            };
            let before = cost_at(&session);
            let mut doubled = mk();
            {
                let t = doubled.catalog_mut().table_mut(tid).expect("table");
                t.row_count *= 2;
                t.recompute_pages();
            }
            let after = cost_at(&doubled);
            assert!(
                after >= before * (1.0 - EPS),
                "{schema}.{name}: doubling rows dropped seq-scan cost {before} -> {after}"
            );
        }
    }
}

/// Invariant 4: every entry of the ILP benefit matrix is non-negative:
/// benefit(q, c) = cost(q, ∅) − cost(q, {c}) ≥ 0, at 1 and 4 threads.
#[test]
fn ilp_benefit_matrix_entries_non_negative() {
    for (schema, mk, wl) in schemas() {
        for threads in THREAD_COUNTS {
            let session = mk();
            let mut model = InumModel::build_in(
                session.catalog(),
                &wl,
                None,
                CostParams::default(),
                InumOptions::default(),
                None,
                &RunCtx { par: Parallelism::fixed(threads), ..RunCtx::default() },
            )
            .expect("inum");
            let pool = candidate_pool(&session, &wl, 10);
            let ids: Vec<_> =
                pool.iter().map(|(c, _)| model.register_candidate(c.clone())).collect();
            let empty = Configuration::empty();
            for qi in 0..wl.len() {
                let base = model.cost(qi, &empty);
                for (&id, (_, w)) in ids.iter().zip(&pool) {
                    let with = model.cost(qi, &Configuration::from_ids([id]));
                    let benefit = base - with;
                    assert!(
                        benefit >= -EPS * base.abs(),
                        "{schema}@{threads}t Q{qi}: candidate {} has negative benefit {benefit}",
                        w.name
                    );
                }
            }
        }
    }
}

/// Invariant 5: staging AutoPart's suggestion as a DBA design and
/// evaluating it reproduces AutoPart's own per-query costs bit for bit,
/// the same rewritten statements, and the same features (as sets: the
/// two reports list them in different orders).
#[test]
fn staged_partition_suggestion_evaluates_identically() {
    for (schema, mk, wl) in schemas() {
        let session = mk();
        let sugg = session.suggest_partitions(&wl, AutoPartConfig::default()).expect("autopart");
        assert!(!sugg.partitions.is_empty(), "{schema}: AutoPart must partition something");
        let mut design = Design::new();
        for p in &sugg.partitions {
            let cols: Vec<&str> = p.columns.iter().map(String::as_str).collect();
            design = design.with_partition(WhatIfPartition::new(&p.name, &p.table, &cols));
        }
        let (report, rewritten) = session.evaluate_design(&wl, &design).expect("evaluate");
        assert_eq!(rewritten, sugg.rewritten, "{schema}: rewritten workloads differ");
        assert_eq!(sugg.report.per_query.len(), report.per_query.len());
        for (qi, (a, b)) in sugg.report.per_query.iter().zip(&report.per_query).enumerate() {
            assert_eq!(a.cost_before.to_bits(), b.cost_before.to_bits(), "{schema} Q{qi}: before");
            assert_eq!(a.cost_after.to_bits(), b.cost_after.to_bits(), "{schema} Q{qi}: after");
            let set = |f: &[String]| f.iter().cloned().collect::<std::collections::BTreeSet<_>>();
            assert_eq!(set(&a.features_used), set(&b.features_used), "{schema} Q{qi}: features");
        }
    }
}
