//! `lib_advise_100k` — the library's clustered 100k-statement advise
//! path, in process, one thread.
//!
//! Why: it is the scaling path (cluster a literal-varied stream into 24
//! templates, advise over the templates) and no console route reaches
//! it. Clustering and fingerprinting do almost all the work at 100k
//! statements; INUM, the advisor and the solver see 24 templates. The
//! same advise over the first 10k and 1k statements shows where the
//! fixed cost ends and the per-statement cost begins.

use std::time::Instant;

use crate::adapter::{Advice, AdvisedIndex, Method, Session, Stream};
use crate::common::{Checker, Config, Metric, Outcome, Samples, PINNED_SEED};
use crate::gen::{self, Source};
use crate::layers::LayerInputs;
use crate::profile::Profile;
use crate::rounds::Rounds;
use crate::{expected, stats, wire};

pub const NAME: &str = "lib_advise_100k";
pub const WHY: &str = "In-process clustered advise over a 100k-statement stream (24 templates): fingerprint and cluster dominate; INUM, advisor, solver, the wire and the journal are bypassed.";

const STATEMENTS: usize = 100_000;
/// Stream prefixes advised each round, largest first, with the class
/// their latency is recorded under.
const SIZES: [(usize, &str); 3] = [
    (100_000, "advise_100k"),
    (10_000, "advise_10k"),
    (1_000, "advise_1k"),
];
/// The input is generated, written, read back and parsed this many times;
/// `setup_s` is the median.
const SETUPS: usize = 3;

fn design_text(indexes: &[AdvisedIndex]) -> String {
    let mut lines: Vec<String> = indexes
        .iter()
        .map(|i| {
            format!(
                "index {}({}) {} bytes\n",
                i.table,
                i.columns.join(","),
                i.size_bytes
            )
        })
        .collect();
    lines.sort();
    lines.concat()
}

fn check_advice(checker: &mut Checker, what: &str, budget: u64, a: &Advice) {
    let size: u64 = a.indexes.iter().map(|i| i.size_bytes).sum();
    checker.check(!a.degraded, || format!("{what}: degraded advise"));
    checker.check(size <= budget, || {
        format!("{what}: design of {size} bytes exceeds budget {budget}")
    });
    checker.check(a.cost_after <= a.cost_before, || {
        format!(
            "{what}: advised cost {} above the empty design's {}",
            a.cost_after, a.cost_before
        )
    });
    checker.check(a.eval_after <= a.eval_before, || {
        format!(
            "{what}: evaluated cost {} above the empty design's {}",
            a.eval_after, a.eval_before
        )
    });
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut samples = Samples::default();

    // Set-up: statements -> .sql file -> parsed stream.
    let path = cfg.tmp.join("stream.sql");
    let mut setups = Vec::new();
    let mut statements = Vec::new();
    let mut stream = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut src = Source::new(cfg.seed, 1);
        statements = (0..STATEMENTS)
            .map(|_| gen::stream_statement(&mut src))
            .collect::<Vec<_>>();
        let parsed = std::fs::write(&path, statements.join(";\n") + ";\n")
            .and_then(|()| std::fs::read_to_string(&path))
            .map_err(|e| e.to_string())
            .and_then(|text| Stream::parse(&text));
        setups.push(start.elapsed().as_secs_f64());
        match parsed {
            Ok(s) => stream = Some(s),
            Err(e) => out.checker.check(false, || format!("set-up: {e}")),
        }
    }
    let Some(stream) = stream else { return out };
    out.checker.check(stream.len() == STATEMENTS, || {
        format!("parsed {} statements", stream.len())
    });
    let prefixes: Vec<Stream> = SIZES.iter().map(|&(n, _)| stream.prefix(n)).collect();

    let mut rounds = Rounds::new(cfg, true);
    let mut first: Vec<Option<String>> = vec![None; SIZES.len()];
    while let Some(mut round) = rounds.next(cfg) {
        let start = Instant::now();
        let mut profile = Profile::default();
        let mut request_ms = 0.0;
        for (i, &(n, class)) in SIZES.iter().enumerate() {
            let session = Session::open(round.traced);
            let advice = session.advise(&prefixes[i], Method::Ilp);
            out.checker.check(advice.is_ok(), || {
                format!("advise over {n}: {:?}", advice.as_ref().err())
            });
            let Ok(advice) = advice else { continue };
            check_advice(&mut out.checker, class, session.budget_bytes, &advice);
            let text = design_text(&advice.indexes);
            match &first[i] {
                None => first[i] = Some(text),
                Some(f) => out.checker.check(*f == text, || {
                    format!("{class}: design changed between repetitions")
                }),
            }
            samples.push(class, advice.advise_secs);
            // The per-layer numbers are those of the 100k advise.
            if i == 0 {
                samples.push("evaluate", advice.evaluate_secs);
                request_ms = (advice.advise_secs + advice.evaluate_secs) * 1e3;
                if let Some((spans, counters)) = session.program_trace() {
                    profile = Profile::from_maps(spans, counters);
                }
            }
            if let Some(log) = round.spans.as_mut() {
                log.record(
                    "lib.advise",
                    n as u64,
                    advice.advise_secs + advice.evaluate_secs,
                );
            }
        }
        rounds.done(
            round,
            start.elapsed().as_secs_f64(),
            request_ms,
            &profile,
            &mut out.checker,
        );
    }

    // Once per run: the ILP design may not cost more than the greedy one.
    let session = Session::open(false);
    match (
        session.advise(&prefixes[0], Method::Ilp),
        session.advise(&prefixes[0], Method::Greedy),
    ) {
        (Ok(ilp), Ok(greedy)) => {
            check_advice(&mut out.checker, "greedy", session.budget_bytes, &greedy);
            out.checker
                .check(ilp.cost_after <= greedy.cost_after * (1.0 + 1e-9), || {
                    format!(
                        "ILP design costs {} > greedy {}",
                        ilp.cost_after, greedy.cost_after
                    )
                });
            out.checker.check(ilp.templates == 24, || {
                format!("{} templates, expected 24", ilp.templates)
            });
        }
        (Err(e), _) | (_, Err(e)) => out.checker.check(false, || format!("ilp-vs-greedy: {e}")),
    }
    if cfg.seed == PINNED_SEED {
        expected::compare(
            cfg,
            NAME,
            first[0].as_deref().unwrap_or(""),
            &mut out.checker,
        );
    }

    let rss = wire::peak_rss_mb_of("/proc/self/status");
    let advise_100k = samples.get("advise_100k");
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setups),
        Metric::median("round_s", "s", &rounds.secs()),
        Metric::median("op_a_ms", "ms", advise_100k),
        Metric::median("op_b_ms", "ms", samples.get("advise_10k")),
        Metric::median("op_c_ms", "ms", samples.get("advise_1k")),
        Metric::median("op_d_ms", "ms", samples.get("evaluate")),
        Metric::scalar("peak_rss_mb", "MB", rss),
    ];
    out.named = vec![
        Metric::median("advise_s", "s", advise_100k),
        Metric::median("advise_10k_s", "s", samples.get("advise_10k")),
        Metric::median("advise_1k_s", "s", samples.get("advise_1k")),
        Metric::median("evaluate_ms", "ms", samples.get("evaluate")),
        Metric::scalar(
            "stmts_per_s",
            "1/s",
            STATEMENTS as f64 / stats::median(advise_100k).max(1e-9),
        ),
        Metric::scalar("peak_rss_mb", "MB", rss),
    ];
    let tail_light_ms = stats::tail(advise_100k).1 * 1e3;
    rounds.finish(cfg, &mut out, |_| LayerInputs {
        statements,
        tail_light_ms,
        ..LayerInputs::default()
    });
    out
}
