//! `wire_interactive` — the paper's Scenario 1 (interactive what-if)
//! under two concurrent sessions on an ephemeral daemon.
//!
//! Each client runs a fixed-length seeded script of 200 episodes: stage
//! one to three what-if indexes, look around (`explain`, `describe`,
//! `show design`), `eval` the staged design, ask the greedy advisor
//! once, `clear`. 80 % of the requests are light verbs, 15 % `eval`,
//! 5 % `suggest indexes 2048 greedy`.
//!
//! Why: the light verbs take tens of microseconds, so the wire round
//! trip, the reader/worker thread hand-off and console dispatch dominate
//! them; `eval` and `suggest` go through the plan cache the two sessions
//! share. Nothing is journaled and nothing streams, so a change to
//! `durability` or `stream` must leave every number here where it was.

use std::time::Instant;

use crate::common::{
    extra_setups, Checker, Config, Metric, Outcome, Samples, SpanLog, PINNED_SEED,
};
use crate::gen::{self, Rng, Source};
use crate::layers::LayerInputs;
use crate::profile::Profile;
use crate::rounds::Rounds;
use crate::wire::{self, Client, Daemon};
use crate::{adapter, expected, reply, stats};

pub const NAME: &str = "wire_interactive";
pub const WHY: &str = "Two concurrent what-if sessions, no journal: 80% light verbs (round trip, thread hand-off, dispatch), 15% eval, 5% greedy suggest via the shared plan cache. Bypasses durability, stream.";

const CLIENTS: usize = 2;
const EPISODES: usize = 200;
const SUGGEST_MB: u64 = 2048;
const PRIME: [&str; 2] = ["threads 1", "workload sdss"];

struct Step {
    class: &'static str,
    line: String,
}

/// The script of one client. The seed picks statements, tables, index
/// keys and the order inside an episode; the length and the verb mix are
/// the same for every seed. Also returns the SQL it explains.
fn script(seed: u64, client: usize) -> (Vec<Step>, Vec<String>) {
    let mut rng = Rng::fork(seed, 10 + client as u64);
    let mut src = Source::new(seed, 10 + client as u64);
    let mut steps = Vec::with_capacity(EPISODES * 20);
    let mut explained = Vec::new();
    let light = |line: String| Step {
        class: "light",
        line,
    };
    for episode in 0..EPISODES {
        // Three design slots: 1, 2 or 3 what-if indexes (by episode
        // number, not by seed), padded with `show design`.
        let staged = episode % 3 + 1;
        let mut keys: Vec<usize> = (0..gen::WHATIF_KEYS.len()).collect();
        rng.shuffle(&mut keys);
        for (slot, &key) in keys.iter().take(3).enumerate() {
            let (table, cols) = gen::WHATIF_KEYS[key];
            steps.push(light(if slot < staged {
                format!("whatif index w{slot} {table} {cols}")
            } else {
                "show design".to_string()
            }));
        }
        let mut body = Vec::with_capacity(16);
        for _ in 0..6 {
            let sql = gen::stream_statement(&mut src);
            body.push(light(format!("explain {sql}")));
            explained.push(sql);
        }
        for _ in 0..4 {
            body.push(light(format!("describe {}", rng.pick(&gen::TABLES))));
        }
        body.extend((0..2).map(|_| light("show design".to_string())));
        body.extend((0..3).map(|_| Step {
            class: "eval",
            line: "eval".to_string(),
        }));
        body.push(Step {
            class: "suggest",
            line: format!("suggest indexes {SUGGEST_MB} greedy"),
        });
        rng.shuffle(&mut body);
        steps.extend(body);
        steps.push(light("clear".to_string()));
    }
    (steps, explained)
}

type Scripts = Vec<(Vec<Step>, Vec<String>)>;

/// Set-up: the scripts, the daemon, two primed sessions.
fn set_up(
    cfg: &Config,
    traced: bool,
    checker: &mut Checker,
) -> Option<(Daemon, Vec<Client>, Scripts)> {
    let scripts: Scripts = (0..CLIENTS).map(|c| script(cfg.seed, c)).collect();
    let (daemon, clients) = wire::set_up(
        &cfg.cli,
        None,
        CLIENTS,
        &wire::primed(&PRIME, traced),
        checker,
    )?;
    Some((daemon, clients, scripts))
}

struct ClientResult {
    client: Client,
    checker: Checker,
    samples: Samples,
    spans: Option<SpanLog>,
    design: Option<String>,
}

fn run_client(
    mut client: Client,
    id: usize,
    steps: &[Step],
    mut spans: Option<SpanLog>,
) -> ClientResult {
    let (mut checker, mut samples) = (Checker::default(), Samples::default());
    let mut design: Option<String> = None;
    for step in steps {
        let r = client.request(&step.line);
        if let Some(log) = spans.as_mut() {
            log.record(step.class, id as u64, r.secs);
        }
        if !checker.reply(&step.line, &r) {
            continue;
        }
        samples.push(step.class, r.secs);
        match step.class {
            "eval" => checker.check(
                reply::totals(&r.payload).is_some_and(|(b, a)| a <= b),
                || "a staged design evaluates worse than the empty design".into(),
            ),
            "suggest" => {
                let indexes = reply::indexes(&r.payload);
                checker.check(reply::fits(&indexes, SUGGEST_MB), || {
                    "greedy design is empty or over budget".into()
                });
                let text = reply::design_text(&indexes);
                match &design {
                    None => design = Some(text),
                    Some(d) => {
                        checker.check(*d == text, || "greedy design changed between calls".into())
                    }
                }
            }
            _ => {}
        }
    }
    ClientResult {
        client,
        checker,
        samples,
        spans,
        design,
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let mut setups = extra_setups(|| set_up(cfg, false, &mut out.checker));
    let mut rss = 0.0f64;
    let mut first_design: Option<String> = None;
    let mut rtt_secs = Vec::new();
    let mut last_stats = String::new();

    // Which session populates the shared plan cache first is a race, so
    // hit and miss counters differ from round to round.
    let mut rounds = Rounds::new(cfg, false);
    while let Some(mut round) = rounds.next(cfg) {
        let setup = Instant::now();
        let Some((daemon, clients, scripts)) = set_up(cfg, round.traced, &mut out.checker) else {
            break;
        };
        setups.push(setup.elapsed().as_secs_f64());

        // Both clients start together; the round ends when the slower one
        // has its last reply.
        let (round_secs, results) = wire::together(clients, |id, client| {
            run_client(
                client,
                id,
                &scripts[id].0,
                round.spans.as_ref().map(SpanLog::sibling),
            )
        });

        // After the clock stopped, in a traced round: the cost of a request
        // that does nothing, with both clients asking as in the script.
        let mut results = results;
        if round.traced {
            let clients: Vec<&mut Client> = results.iter_mut().map(|r| &mut r.client).collect();
            let (_, pings) = wire::together(clients, |_, client| {
                (0..200)
                    .map(|_| client.request(""))
                    .filter(|r| r.ok)
                    .map(|r| r.secs)
                    .collect::<Vec<f64>>()
            });
            rtt_secs.extend(pings.into_iter().flatten());
        }
        let (mut profile, mut request_ms) = (Profile::default(), 0.0);
        for mut r in results {
            if round.traced {
                profile.merge(&Profile::parse(&r.client.request("profile show").payload));
                last_stats = r.client.request("server stats").payload;
            }
            request_ms += r.samples.0.values().flatten().sum::<f64>() * 1e3;
            out.checker.merge(r.checker);
            samples.merge(r.samples);
            if let (Some(all), Some(log)) = (round.spans.as_mut(), r.spans) {
                all.adopt(log);
            }
            match (&first_design, r.design) {
                (None, d) => first_design = d,
                (Some(f), Some(d)) => out.checker.check(*f == d, || {
                    "greedy design differs between sessions or rounds".into()
                }),
                (Some(_), None) => {}
            }
        }
        rss = rss.max(daemon.peak_rss_mb());
        daemon.kill();
        rounds.done(round, round_secs, request_ms, &profile, &mut out.checker);
    }
    if cfg.seed == PINNED_SEED {
        expected::compare(
            cfg,
            NAME,
            first_design.as_deref().unwrap_or(""),
            &mut out.checker,
        );
    }

    let requests = (CLIENTS * EPISODES * 20) as f64;
    let round_secs = rounds.secs();
    let light_ms: Vec<f64> = samples.get("light").iter().map(|s| s * 1e3).collect();
    let light_p99 = stats::percentile(&stats::sorted(&light_ms), 0.99);
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setups),
        Metric::median("round_s", "s", &round_secs),
        Metric::median("op_a_ms", "ms", samples.get("light")),
        Metric::scalar("op_b_ms", "ms", light_p99),
        Metric::median("op_c_ms", "ms", samples.get("eval")),
        Metric::median("op_d_ms", "ms", samples.get("suggest")),
        Metric::scalar("peak_rss_mb", "MB", rss),
    ];
    out.named = vec![
        Metric::scalar(
            "req_per_s",
            "1/s",
            requests / stats::median(&round_secs).max(1e-9),
        ),
        Metric::median("light_p50_ms", "ms", samples.get("light")),
        Metric::scalar("light_p99_ms", "ms", light_p99),
        Metric::median("eval_p50_ms", "ms", samples.get("eval")),
        Metric::median("suggest_greedy_p50_ms", "ms", samples.get("suggest")),
        Metric::scalar("peak_rss_mb", "MB", rss),
    ];
    rounds.finish(cfg, &mut out, |_| {
        // The first client's first 40 episodes again, in process: what is
        // left of a light verb's wire latency is the server's own.
        let (steps, _) = script(cfg.seed, 0);
        let head = &steps[..steps.len().min(40 * 20)];
        let lines: Vec<String> = head.iter().map(|s| s.line.clone()).collect();
        let prime: Vec<String> = PRIME.iter().map(|s| s.to_string()).collect();
        let in_process: Vec<f64> = adapter::dispatch_secs(&prime, &lines)
            .into_iter()
            .zip(head)
            .filter(|(_, step)| step.class == "light")
            .filter_map(|(secs, _)| secs)
            .collect();
        LayerInputs {
            statements: (0..CLIENTS).flat_map(|c| script(cfg.seed, c).1).collect(),
            shared_hits: wire::stat(&last_stats, "inum_plan_cache_hits").unwrap_or(0),
            shared_misses: wire::stat(&last_stats, "inum_plan_cache_misses").unwrap_or(0),
            rtt_us: stats::median(&rtt_secs) * 1e6,
            wire_light_us: stats::median(samples.get("light")) * 1e6,
            dispatch_us: stats::median(&in_process) * 1e6,
            tail_light_ms: stats::tail(&light_ms).1,
            ..LayerInputs::default()
        }
    });
    out
}
