//! Workload-compression and warm-start equivalence suite (the E10
//! scaling pipeline's correctness contracts).
//!
//! Two guarantees are pinned here:
//!
//! * **Clustering is advising-invariant** — advising the compressed,
//!   weighted template set selects the same physical design as advising
//!   the raw statement stream, and the weighted totals match the raw
//!   sums up to float re-association (`w·c` vs `c + c + …`).
//! * **The warm start is a pure accelerator** — the greedy incumbent
//!   never changes a selected design or a proven optimum; it only
//!   shrinks the branch-and-bound search, which the trace counters
//!   (`solver_nodes`, `bnb_pruned_by_incumbent`) make observable.

use parinda::{
    AdviseRequest, Counter, IlpOptions, IndexSuggestion, Parallelism, Parinda, SelectionMethod, Trace,
};
use parinda_workload::{
    compress_workload, fingerprint, generate_retail_stream, generate_sdss_stream, retail_catalog,
    retail_load, sdss_catalog, sdss_workload, synthesize_stats, SdssScale, Workload,
};
use proptest::prelude::*;

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

/// A design stripped of naming: (table, key columns, size). Raw and
/// compressed runs may number their suggestions differently, but must
/// pick the same physical indexes.
fn design(s: &IndexSuggestion) -> Vec<(String, Vec<String>, u64)> {
    let mut d: Vec<_> =
        s.indexes.iter().map(|i| (i.table.clone(), i.columns.clone(), i.size_bytes)).collect();
    d.sort();
    d
}

/// Relative-tolerance comparison. `rel = 1e-9` is the re-association
/// bound (`w·c` vs `c + c + …` over a few hundred terms); looser bounds
/// are for the documented lossiness of literal-erasing clustering.
fn assert_close(a: f64, b: f64, rel: f64, what: &str) {
    let tol = rel * a.abs().max(b.abs()).max(1.0);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b} (|Δ| = {})", (a - b).abs());
}

/// Clustering is **exact** when every member of a cluster is the same
/// statement (same literals): the template's `w·cost` is the raw sum up
/// to re-association. For literal-*varied* streams (the E10 input) the
/// template is costed at its representative's literals, so the totals
/// agree only up to the selectivity spread within a cluster — a small,
/// bounded approximation that is the price of the 1000x compression.
fn check_advising_invariant(mk: fn() -> Parinda, stream: &Workload, rel: f64, schema: &str) {
    let session = {
        let mut s = mk();
        s.set_parallelism(Parallelism::fixed(1));
        s.set_trace(Trace::recording());
        s
    };
    let budget = 2_u64 << 30;
    let options = IlpOptions::default();

    // Reference: advise the raw stream, one query per statement.
    let raw = session
        .advise(&AdviseRequest {
            options: options.clone(),
            ..AdviseRequest::new(&stream.queries(), budget, SelectionMethod::Ilp)
        })
        .expect("raw advising");

    // Same session, compressed path: templates with summed weights.
    let (folded, compressed) = session
        .suggest_indexes_compressed(stream, budget, SelectionMethod::Ilp, &options)
        .expect("compressed advising");

    assert!(compressed.merged() > 0, "{schema} stream should actually cluster");
    assert_eq!(compressed.len() + compressed.merged(), stream.len());
    let snap = session.trace().snapshot();
    assert!(
        snap.counter(Counter::TemplatesMerged) >= compressed.merged() as u64,
        "{schema}: clustering ran untraced"
    );
    assert!(snap.counter(Counter::MatrixNnz) > 0, "{schema}: no benefit cells materialized");

    assert!(raw.proven_optimal, "{schema}: raw run not proven optimal");
    assert!(folded.proven_optimal, "{schema}: folded run not proven optimal");

    // Both formulations solve the same weighted objective, so their
    // totals must agree up to re-association — but the 160-row and
    // 24-row programs may tie-break differently among equally good
    // vertices (e.g. a zero-benefit index included for free), so the
    // *designs* are compared by quality, not by identity: each
    // proven-optimal design, what-if-evaluated over the raw stream,
    // must achieve the same workload cost.
    assert_close(
        raw.report.total_before(),
        folded.report.total_before(),
        rel,
        &format!("{schema} total cost before"),
    );
    assert_close(
        raw.report.total_after(),
        folded.report.total_after(),
        rel,
        &format!("{schema} total cost after"),
    );
    let raw_queries = stream.queries();
    let whatif_cost = |s: &IndexSuggestion| {
        let design = parinda::Design {
            indexes: s
                .indexes
                .iter()
                .map(|i| {
                    let cols: Vec<&str> = i.columns.iter().map(String::as_str).collect();
                    parinda::WhatIfIndex::new(&i.name, &i.table, &cols)
                })
                .collect(),
            ..Default::default()
        };
        let (report, _) = session.evaluate_design(&raw_queries, &design).expect("what-if eval");
        report.total_after()
    };
    assert_close(
        whatif_cost(&raw),
        whatif_cost(&folded),
        rel,
        &format!("{schema}: raw-optimal vs compressed-optimal design quality"),
    );
}

/// An exact-duplicate stream: each of the 30 SDSS workload statements
/// repeated a deterministic number of times. Every cluster member is
/// literally identical, so compressed advising must equal the raw
/// weighted sum to re-association precision.
fn duplicated_sdss_stream() -> Workload {
    let base = sdss_workload();
    let mut entries = Vec::new();
    for round in 0..4usize {
        for (i, q) in base.iter().enumerate() {
            if i % 4 + 1 > round {
                entries.push(parinda_workload::WorkloadEntry { query: q.clone(), weight: 1.0 });
            }
        }
    }
    Workload { entries }
}

#[test]
fn exact_duplicate_stream_compresses_losslessly() {
    let stream = duplicated_sdss_stream();
    // setup guard: the 30 base statements must not merge with EACH
    // OTHER (that would mix literals and break exactness)
    let base_templates = compress_workload(
        &Workload {
            entries: sdss_workload()
                .into_iter()
                .map(|q| parinda_workload::WorkloadEntry { query: q, weight: 1.0 })
                .collect(),
        },
        &Trace::disabled(),
    );
    assert_eq!(base_templates.len(), 30, "base SDSS statements unexpectedly share a fingerprint");
    check_advising_invariant(sdss_session, &stream, 1e-9, "sdss-duplicates");
}

#[test]
fn sdss_compressed_advising_matches_raw_stream() {
    check_advising_invariant(sdss_session, &generate_sdss_stream(160, 7), 5e-2, "sdss");
}

#[test]
fn retail_compressed_advising_matches_raw_stream() {
    check_advising_invariant(retail_session, &generate_retail_stream(160, 7), 5e-2, "retail");
}

/// The greedy incumbent is sound at every E4 storage budget: same
/// design, same optimality verdict, bit-identical totals — and the warm
/// search never expands more branch-and-bound nodes than the cold one,
/// strictly fewer in aggregate, with at least one node pruned against
/// the seeded incumbent.
#[test]
fn warm_start_never_worsens_the_proven_optimum() {
    let wl = sdss_workload();
    let run = |mb: u64, warm: bool| {
        let mut session = sdss_session();
        session.set_parallelism(Parallelism::fixed(1));
        session.set_trace(Trace::recording());
        let options = IlpOptions { warm_start: warm, ..Default::default() };
        let sugg = session
            .advise(&AdviseRequest {
                options,
                ..AdviseRequest::new(&wl, mb << 20, SelectionMethod::Ilp)
            })
            .expect("budgeted ILP");
        let snap = session.trace().snapshot();
        (sugg, snap.counter(Counter::SolverNodes), snap.counter(Counter::BnbPrunedByIncumbent))
    };

    let (mut nodes_warm, mut nodes_cold, mut pruned) = (0u64, 0u64, 0u64);
    for mb in [400u64, 1200, 2120] {
        let (warm, wn, wp) = run(mb, true);
        let (cold, cn, _) = run(mb, false);
        assert_eq!(design(&warm), design(&cold), "warm start changed the design at {mb} MB");
        assert_eq!(
            warm.proven_optimal, cold.proven_optimal,
            "warm start changed the optimality verdict at {mb} MB"
        );
        assert_eq!(
            warm.report.total_after().to_bits(),
            cold.report.total_after().to_bits(),
            "warm start changed the achieved cost at {mb} MB"
        );
        assert!(wn <= cn, "warm start expanded more nodes at {mb} MB: {wn} > {cn}");
        nodes_warm += wn;
        nodes_cold += cn;
        pruned += wp;
    }
    assert!(
        nodes_warm < nodes_cold,
        "warm start never shrank the search: {nodes_warm} vs {nodes_cold} nodes"
    );
    assert!(pruned > 0, "the incumbent never pruned a node across the whole sweep");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Structural clustering invariants over randomized generated streams
    // on both schemas: compression regroups, never drops or rescales.
    #[test]
    fn clustering_preserves_weight_and_membership(
        n in 20usize..300,
        seed in 0u64..1_000,
        retail in any::<bool>(),
    ) {
        let stream =
            if retail { generate_retail_stream(n, seed) } else { generate_sdss_stream(n, seed) };
        let c = compress_workload(&stream, &Trace::disabled());
        prop_assert_eq!(c.raw_statements, n);
        prop_assert_eq!(c.len() + c.merged(), n);
        // stream statements all weigh 1.0, so the totals are integers
        // and the sums are exact
        let total: f64 = c.weights().iter().sum();
        prop_assert_eq!(total, n as f64);
        prop_assert_eq!(c.raw_weight, n as f64);
        for t in &c.templates {
            prop_assert!(t.weight >= 1.0, "template weight {} < 1", t.weight);
            prop_assert_eq!(t.members as f64, t.weight);
            // the representative re-fingerprints to the key it clustered under
            prop_assert_eq!(&fingerprint(&t.query.to_string()), &t.fingerprint);
        }
        // surviving templates are pairwise distinct
        let mut keys: Vec<&str> = c.templates.iter().map(|t| t.fingerprint.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), c.len());
    }
}
