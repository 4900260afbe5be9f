//! E9 — observability overhead: the trace layer must be free when
//! disabled (<2% on the hottest path, the INUM cached estimator whose
//! per-call work is a handful of arithmetic ops) and cheap when
//! recording. Three variants of the same 100k-estimate loop:
//!
//! * `disabled`  — `Trace::disabled()`: one branch per counter site.
//! * `recording` — a live `Sink` aggregating spans and counters.
//! * plus the full ILP advisor run, traced vs untraced.

use criterion::{criterion_group, criterion_main, Criterion};
use parinda::{SelectionMethod, Trace};
use parinda_bench::{paper_session, workload};
use parinda_catalog::MetadataProvider;
use parinda_inum::{CandidateIndex, Configuration, InumModel, InumOptions};
use parinda_optimizer::CostParams;
use parinda_parallel::{Parallelism, RunCtx};

fn traced_model(
    session: &parinda::Parinda,
    trace: Trace,
) -> (InumModel<'_>, Vec<Configuration>, usize) {
    let wl = workload();
    let mut model = InumModel::build_in(
        session.catalog(),
        &wl,
        None,
        CostParams::default(),
        InumOptions::default(),
        None,
        &RunCtx { par: Parallelism::fixed(1), trace, ..RunCtx::default() },
    )
    .expect("inum build");
    let photo = session.catalog().table_by_name("photoobj").unwrap().id;
    let spec = session.catalog().table_by_name("specobj").unwrap().id;
    let cands: Vec<_> = [(photo, vec![0]), (photo, vec![14]), (spec, vec![1]), (spec, vec![5])]
        .into_iter()
        .map(|(t, c)| model.register_candidate(CandidateIndex::new(t, c)))
        .collect();
    let configs: Vec<Configuration> = (0..16u32)
        .map(|mask| {
            Configuration::from_ids(
                cands
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &id)| id),
            )
        })
        .collect();
    for cfg in &configs {
        model.workload_cost(cfg); // warm memoization
    }
    (model, configs, wl.len())
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_trace_overhead");

    // Hot path: 100k cached estimates. The disabled and recording
    // variants must be within noise of each other for the "<2% when
    // disabled" contract (the estimator itself is the baseline; the
    // disabled trace adds one branch per memo access).
    let session = paper_session();
    for (label, trace) in
        [("estimates_100k_disabled", Trace::disabled()), ("estimates_100k_recording", Trace::recording())]
    {
        let (model, configs, nq) = traced_model(&session, trace);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for i in 0..100_000usize {
                    acc += model.cost(i % nq, &configs[i % configs.len()]);
                }
                acc
            })
        });
    }

    // Whole-pipeline check: the ILP advisor end to end, untraced vs
    // traced (spans around every phase, counters in every sweep).
    group.sample_size(10);
    for (label, trace) in
        [("ilp_advisor_disabled", Trace::disabled()), ("ilp_advisor_recording", Trace::recording())]
    {
        let mut session = paper_session();
        session.set_parallelism(Parallelism::fixed(1));
        session.set_trace(trace);
        let wl = workload();
        group.bench_function(label, |b| {
            b.iter(|| session.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Ilp).unwrap())
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
