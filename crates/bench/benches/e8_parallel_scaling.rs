//! E8 — parallel evaluation-engine scaling: wall-clock of the three hot
//! paths (INUM cache build, ILP advising, AutoPart) at 1, 2, 4, and 8
//! threads. The answers are asserted byte-identical to the single-thread
//! run before anything is timed — scaling that changes the design would be
//! a bug, not a speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parinda::{AutoPartConfig, Parallelism, SelectionMethod};
use parinda_bench::{paper_session, workload};
use parinda_inum::{InumModel, InumOptions};
use parinda_optimizer::CostParams;
use parinda_parallel::RunCtx;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn suggestion_fingerprint(
    session: &parinda::Parinda,
    wl: &[parinda::Select],
) -> (Vec<String>, Vec<u64>) {
    let sugg = session
        .suggest_indexes(wl, 2_u64 << 30, SelectionMethod::Ilp)
        .expect("advising must succeed");
    (
        sugg.indexes.iter().map(|i| i.name.clone()).collect(),
        sugg.report.per_query.iter().map(|q| q.cost_after.to_bits()).collect(),
    )
}

fn bench(c: &mut Criterion) {
    let wl = workload();

    // Correctness gate: identical designs at every thread count.
    let mut baseline = None;
    for threads in THREADS {
        let mut session = paper_session();
        session.set_parallelism(Parallelism::fixed(threads));
        let fp = suggestion_fingerprint(&session, &wl);
        match &baseline {
            None => baseline = Some(fp),
            Some(b) => assert_eq!(b, &fp, "design changed at {threads} threads"),
        }
    }

    let session = paper_session();

    let mut group = c.benchmark_group("e8_inum_build");
    group.sample_size(10);
    for threads in THREADS {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                InumModel::build_in(
                    session.catalog(),
                    &wl,
                    None,
                    CostParams::default(),
                    InumOptions::default(),
                    None,
                    &RunCtx { par: Parallelism::fixed(t), ..RunCtx::default() },
                )
                .unwrap()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e8_ilp_advising");
    group.sample_size(10);
    for threads in THREADS {
        let mut s = paper_session();
        s.set_parallelism(Parallelism::fixed(threads));
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| s.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Ilp).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e8_autopart");
    group.sample_size(10);
    for threads in THREADS {
        let mut s = paper_session();
        s.set_parallelism(Parallelism::fixed(threads));
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| s.suggest_partitions(&wl, AutoPartConfig::default()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
