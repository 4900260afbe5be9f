//! `wire_advise` — the paper's automatic-suggestion scenarios as a user of
//! the daemon gets them: one client, one session, AutoPart over the 30
//! SDSS queries, then the ILP and the greedy index advisor over a file of
//! 300 distinct generated queries, then the advised design staged and
//! evaluated.
//!
//! Why: AutoPart puts `advisor::autopart`, `optimizer`, `whatif` and the
//! parallel engine to work; the 300-query ILP puts INUM population, the
//! benefit matrix and branch-and-bound to work. The console never
//! clusters a workload file, so `workload::fingerprint` does nothing
//! here, and there is no data dir, so neither does `durability`.

use std::path::PathBuf;
use std::time::Instant;

use crate::common::{
    extra_setups, Checker, Config, Metric, Outcome, Samples, SpanLog, PINNED_SEED,
};
use crate::gen::{self, Source};
use crate::layers::LayerInputs;
use crate::profile::Profile;
use crate::rounds::Rounds;
use crate::wire::{self, Client, Daemon};
use crate::{expected, reply, stats};

pub const NAME: &str = "wire_advise";
pub const WHY: &str = "One client over the wire: AutoPart on 30 SDSS queries, then ILP and greedy advice on 300 distinct queries. Advisor, INUM, solver, optimizer dominate; clustering and journal bypassed.";

const FILE_QUERIES: usize = 300;
const BUDGET_MB: u64 = 1200;
const THREADS: usize = 2;
const REPEATS: usize = 3;

/// One measured request: send, count, time, span.
struct Session<'a> {
    client: Client,
    checker: &'a mut Checker,
    samples: &'a mut Samples,
    spans: Option<&'a mut SpanLog>,
    request_secs: f64,
}

impl Session<'_> {
    fn request(&mut self, class: &'static str, line: &str) -> Option<String> {
        let r = self.client.request(line);
        self.request_secs += r.secs;
        if let Some(log) = self.spans.as_deref_mut() {
            log.record(class, 1, r.secs);
        }
        if self.checker.reply(line, &r) {
            self.samples.push(class, r.secs);
            Some(r.payload)
        } else {
            None
        }
    }
}

struct RoundResult {
    setup_secs: f64,
    round_secs: f64,
    request_secs: f64,
    design: String,
    profile: Profile,
    stats: String,
    rss_mb: f64,
}

/// Set-up: the query file, the daemon, the primed session.
fn set_up(cfg: &Config, traced: bool, checker: &mut Checker) -> Option<(Daemon, Client, PathBuf)> {
    let file = cfg.tmp.join("advise.sql");
    let written = std::fs::write(&file, statements(cfg.seed).join(";\n") + ";\n");
    checker.check(written.is_ok(), || {
        format!("set-up: cannot write {}", file.display())
    });
    let threads = format!("threads {THREADS}");
    let (daemon, mut clients) = wire::set_up(
        &cfg.cli,
        None,
        1,
        &wire::primed(&[&threads], traced),
        checker,
    )?;
    Some((daemon, clients.pop()?, file))
}

/// The 300 distinct queries of the workload file.
fn statements(seed: u64) -> Vec<String> {
    let mut src = Source::new(seed, 2);
    (0..FILE_QUERIES)
        .map(|_| gen::classic_statement(&mut src))
        .collect()
}

fn run_round(
    cfg: &Config,
    traced: bool,
    checker: &mut Checker,
    samples: &mut Samples,
    spans: Option<&mut SpanLog>,
) -> Option<RoundResult> {
    let start = Instant::now();
    let (daemon, client, file) = set_up(cfg, traced, checker)?;
    let setup_secs = start.elapsed().as_secs_f64();
    let mut s = Session {
        client,
        checker,
        samples,
        spans,
        request_secs: 0.0,
    };

    // The measured scenario.
    let start = Instant::now();
    s.request("workload_sdss", "workload sdss")?;
    let autopart = s.request("autopart", "suggest partitions")?;
    // Cheap requests whose latency scatters are asked three times, so the
    // run's median rests on three samples a round, not one.
    for _ in 0..REPEATS {
        s.request("load_file", &format!("workload file {}", file.display()))?;
    }
    let ilp = s.request("ilp", &format!("suggest indexes {BUDGET_MB} ilp"))?;
    // (greedy: 30 ms on two advisor threads, scatters with thread placement)
    let mut greedy = String::new();
    for _ in 0..REPEATS {
        let again = s.request("greedy", &format!("suggest indexes {BUDGET_MB} greedy"))?;
        s.checker.check(greedy.is_empty() || greedy == again, || {
            "greedy reply changed between calls".into()
        });
        greedy = again;
    }
    let ilp_indexes = reply::indexes(&ilp);
    for (i, idx) in ilp_indexes.iter().enumerate() {
        s.request(
            "stage",
            &format!("whatif index w{i} {} {}", idx.table, idx.columns),
        )?;
    }
    let eval = s.request("eval", "eval")?;
    s.request("clear", "clear")?;
    let round_secs = start.elapsed().as_secs_f64();
    let request_secs = s.request_secs;

    let greedy_indexes = reply::indexes(&greedy);
    let partitions = reply::partitions(&autopart);
    let c = &mut *s.checker;
    c.check(!partitions.is_empty(), || {
        "AutoPart suggested nothing".into()
    });
    c.check(
        !autopart.contains("DEGRADED") && !ilp.contains("DEGRADED") && !greedy.contains("DEGRADED"),
        || "a suggestion was degraded".into(),
    );
    c.check(
        reply::totals(&autopart).is_some_and(|(b, a)| a <= b),
        || "AutoPart design costs more than none".into(),
    );
    c.check(reply::fits(&ilp_indexes, BUDGET_MB), || {
        "ILP design is empty or over budget".into()
    });
    c.check(reply::fits(&greedy_indexes, BUDGET_MB), || {
        "greedy design is empty or over budget".into()
    });
    match (reply::totals(&ilp), reply::totals(&greedy)) {
        (Some((_, ilp_after)), Some((_, greedy_after))) => c
            .check(ilp_after <= greedy_after * (1.0 + 1e-9), || {
                format!("ILP design costs {ilp_after} > greedy {greedy_after}")
            }),
        _ => c.check(false, || "a suggestion has no total line".into()),
    }
    c.check(reply::totals(&eval).is_some_and(|(b, a)| a <= b), || {
        "staged ILP design evaluates worse than the empty design".into()
    });

    let profile = if traced {
        Profile::parse(&s.client.request("profile show").payload)
    } else {
        Profile::default()
    };
    let stats = s.client.request("server stats").payload;
    let design = format!(
        "{}\n-- ilp\n{}-- greedy\n{}",
        partitions.join("\n"),
        reply::design_text(&ilp_indexes),
        reply::design_text(&greedy_indexes)
    );
    let rss_mb = daemon.peak_rss_mb();
    daemon.kill();
    Some(RoundResult {
        setup_secs,
        round_secs,
        request_secs,
        design,
        profile,
        stats,
        rss_mb,
    })
}

/// `suggest partitions` on one advisor thread, seconds (the denominator
/// side of `parallel.autopart_speedup_2t`).
fn autopart_one_thread(cfg: &Config, checker: &mut Checker) -> Option<f64> {
    let daemon = Daemon::spawn(&cfg.cli, None).ok()?;
    let mut client = Client::connect(daemon.addr).ok()?;
    for line in ["threads 1", "workload sdss"] {
        let r = client.request(line);
        checker.reply(line, &r).then_some(())?;
    }
    let r = client.request("suggest partitions");
    checker.reply("suggest partitions", &r).then_some(r.secs)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let mut setups = extra_setups(|| set_up(cfg, false, &mut out.checker));
    let mut rss = 0.0f64;
    let mut first_design: Option<String> = None;
    let mut last_stats = String::new();

    let mut rounds = Rounds::new(cfg, true);
    while let Some(mut round) = rounds.next(cfg) {
        let Some(r) = run_round(
            cfg,
            round.traced,
            &mut out.checker,
            &mut samples,
            round.spans.as_mut(),
        ) else {
            // Three broken rounds are enough to call the run broken.
            if out.checker.failed > 3 {
                break;
            }
            continue;
        };
        setups.push(r.setup_secs);
        rss = rss.max(r.rss_mb);
        match &first_design {
            None => first_design = Some(r.design),
            Some(d) => out.checker.check(*d == r.design, || {
                "advised designs changed between repetitions".into()
            }),
        }
        rounds.done(
            round,
            r.round_secs,
            r.request_secs * 1e3,
            &r.profile,
            &mut out.checker,
        );
        last_stats = r.stats;
    }
    if cfg.seed == PINNED_SEED {
        expected::compare(
            cfg,
            NAME,
            first_design.as_deref().unwrap_or(""),
            &mut out.checker,
        );
    }

    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setups),
        Metric::median("round_s", "s", &rounds.secs()),
        Metric::median("op_a_ms", "ms", samples.get("autopart")),
        Metric::median("op_b_ms", "ms", samples.get("ilp")),
        Metric::median("op_c_ms", "ms", samples.get("greedy")),
        Metric::median("op_d_ms", "ms", samples.get("load_file")),
        Metric::scalar("peak_rss_mb", "MB", rss),
    ];
    out.named = vec![
        Metric::median("autopart_s", "s", samples.get("autopart")),
        Metric::median("suggest_ilp_s", "s", samples.get("ilp")),
        Metric::median("suggest_greedy_s", "s", samples.get("greedy")),
        Metric::median("load_file_s", "s", samples.get("load_file")),
        Metric::median("eval_ms", "ms", samples.get("eval")),
        Metric::median("stage_ms", "ms", samples.get("stage")),
        Metric::scalar("peak_rss_mb", "MB", rss),
    ];
    rounds.finish(cfg, &mut out, |checker| LayerInputs {
        statements: statements(cfg.seed),
        shared_hits: wire::stat(&last_stats, "inum_plan_cache_hits").unwrap_or(0),
        shared_misses: wire::stat(&last_stats, "inum_plan_cache_misses").unwrap_or(0),
        autopart_speedup_2t: autopart_one_thread(cfg, checker).unwrap_or(0.0)
            / stats::median(samples.get("autopart")).max(1e-9),
        tail_light_ms: stats::tail(samples.get("load_file")).1 * 1e3,
        ..LayerInputs::default()
    });
    out
}
