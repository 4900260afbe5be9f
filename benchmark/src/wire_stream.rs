//! `wire_stream_durable` — continuous tuning on a journaling daemon: two
//! clients each feed a drifting statement stream into their session,
//! close an epoch every 2 000 feeds (a phase shift makes most epochs
//! cross the drift threshold and re-advise), and after every epoch the
//! daemon is SIGKILLed and restarted on the same data dir.
//!
//! Why: the same server, core and workload layers as `wire_interactive`,
//! used for writes. Every `feed`, `epoch`, `pin` and `ban` is journaled
//! and fsynced before it applies, so `durability` dominates `feed`;
//! `stream`, INUM's delta maintenance and the solver dominate a
//! re-advising `epoch`; recovery replays every journaled command of both
//! sessions. SIGKILL leaves the OS page cache intact, so this is
//! process-crash durability, and the fsync latency is the sandbox's.

use std::path::Path;
use std::time::Instant;

use crate::common::{
    extra_setups, Checker, Config, Metric, Outcome, Samples, SpanLog, PINNED_SEED,
};
use crate::gen::{self, Rng, Source};
use crate::layers::LayerInputs;
use crate::profile::Profile;
use crate::rounds::Rounds;
use crate::wire::{self, Client, Daemon};
use crate::{expected, reply, stats};

pub const NAME: &str = "wire_stream_durable";
pub const WHY: &str = "Two clients feed a drifting stream to a journaling daemon (97% feed, re-advising epochs, pin/ban), SIGKILL and recovery after every epoch: durability, stream, INUM delta; no what-if.";

const CLIENTS: usize = 2;
/// Kill/restart cycles per round; one epoch per client per cycle.
const CYCLES: usize = 5;
const FEEDS_PER_EPOCH: usize = 2000;
const DRIFTS_PER_EPOCH: usize = 30;
/// `pin`+`unpin` and `ban`+`unban` pairs per epoch.
const PIN_PAIRS: usize = 8;
const BAN_PAIRS: usize = 7;
/// Which 40-template window of the pool each cycle draws from: the
/// stream drifts twice in five epochs.
const PHASE_OF_CYCLE: [usize; CYCLES] = [0, 0, 1, 1, 2];
const _: () = assert!(3 * 40 <= gen::POOL_TEMPLATES);
const BUDGET_MB: u64 = 1200;
const PRIME: [&str; 3] = ["threads 1", "advise auto on", "advise budget 1200"];

struct Step {
    class: &'static str,
    line: String,
    journaled: bool,
}

fn spec(key: usize) -> String {
    let (table, cols) = gen::WHATIF_KEYS[key];
    format!("{table}({})", cols.replace(',', ", "))
}

/// One client's requests for one cycle: the feeds, with `drift` reads and
/// short-lived pins and bans sprinkled between them, then `epoch`.
fn cycle_script(seed: u64, client: usize, cycle: usize) -> Vec<Step> {
    let purpose = 100 + (client * CYCLES + cycle) as u64;
    let (mut rng, mut src) = (Rng::fork(seed, purpose), Source::new(seed, purpose));
    let step = |class, line: String, journaled| Step {
        class,
        line,
        journaled,
    };
    // What follows feed number i.
    let mut after: Vec<Vec<Step>> = (0..FEEDS_PER_EPOCH).map(|_| Vec::new()).collect();
    for _ in 0..DRIFTS_PER_EPOCH {
        after[rng.below(FEEDS_PER_EPOCH as u64) as usize].push(step(
            "drift",
            "drift".into(),
            false,
        ));
    }
    for pair in 0..PIN_PAIRS + BAN_PAIRS {
        // Pins take the first five keys and bans the last five: a name
        // is never pinned and banned at once.
        let (set, unset, key) = if pair < PIN_PAIRS {
            ("pin", "unpin", rng.below(5) as usize)
        } else {
            ("ban", "unban", 5 + rng.below(5) as usize)
        };
        let at = rng.below(FEEDS_PER_EPOCH as u64 - 12) as usize;
        let lifted = at + 1 + rng.below(10) as usize;
        after[at].push(step("constraint", format!("{set} {}", spec(key)), true));
        after[lifted].push(step("constraint", format!("{unset} {}", spec(key)), true));
    }
    let window = PHASE_OF_CYCLE[cycle] * 40;
    let mut steps = Vec::with_capacity(FEEDS_PER_EPOCH + 64);
    for extras in after {
        let template = window + src.choose(40) as usize;
        steps.push(step(
            "feed",
            format!("feed {}", gen::pool_statement(&mut src, template)),
            true,
        ));
        steps.extend(extras);
    }
    steps.push(step("epoch", "epoch".into(), true));
    steps
}

/// One client session across kills: its connection, its durable session
/// id, and every journaled line the daemon has acknowledged.
struct Session {
    client: Client,
    id: usize,
    acknowledged: Vec<String>,
    /// Advised designs of the re-advising epochs, in order.
    designs: String,
    /// The program's profile right after the last attach: what replay
    /// recorded, to be subtracted from the next reading.
    replayed: Profile,
    live: Profile,
}

struct CycleResult {
    checker: Checker,
    samples: Samples,
    spans: Option<SpanLog>,
}

fn run_cycle(s: &mut Session, steps: &[Step], spans: Option<SpanLog>) -> CycleResult {
    let mut r = CycleResult {
        checker: Checker::default(),
        samples: Samples::default(),
        spans,
    };
    for step in steps {
        let reply = s.client.request(&step.line);
        if let Some(log) = r.spans.as_mut() {
            log.record(step.class, s.id as u64, reply.secs);
        }
        if !r.checker.reply(&step.line, &reply) {
            continue;
        }
        if step.journaled {
            s.acknowledged.push(step.line.clone());
        }
        if step.class == "epoch" && reply.payload.contains("re-advising") {
            let indexes = reply::indexes(&reply.payload);
            r.checker.check(reply::fits(&indexes, BUDGET_MB), || {
                "streamed design is empty or over budget".into()
            });
            r.checker.check(
                reply::totals(&reply.payload).is_some_and(|(b, a)| a <= b),
                || "streamed design costs more than none".into(),
            );
            s.designs.push_str(&format!(
                "-- session {} epoch\n{}",
                s.id,
                reply::design_text(&indexes)
            ));
            r.samples.push("epoch_advise", reply.secs);
        } else {
            r.samples.push(step.class, reply.secs);
        }
    }
    r
}

/// Set-up: a fresh data dir, the daemon, two primed sessions.
fn set_up(
    cfg: &Config,
    traced: bool,
    data_dir: Option<&Path>,
    checker: &mut Checker,
) -> Option<(Daemon, Vec<Client>)> {
    if let Some(dir) = data_dir {
        std::fs::remove_dir_all(dir).ok();
    }
    wire::set_up(
        &cfg.cli,
        data_dir,
        CLIENTS,
        &wire::primed(&PRIME, traced),
        checker,
    )
}

/// Numbers one round adds up.
#[derive(Default)]
struct RoundTotals {
    traced: bool,
    feed_section_secs: f64,
    requests: usize,
    wal_records: u64,
    wal_bytes: u64,
    snapshots: u64,
    replayed_records: u64,
    shared_hits: u64,
    shared_misses: u64,
    journaled_cmds: usize,
    journaled_bytes: usize,
    rss_mb: f64,
    live_templates: u64,
    designs: String,
    profile: Profile,
    request_ms: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_round(
    cfg: &Config,
    traced: bool,
    data_dir: Option<&Path>,
    cycles: usize,
    checker: &mut Checker,
    samples: &mut Samples,
    setups: &mut Vec<f64>,
    mut spans: Option<&mut SpanLog>,
) -> Option<RoundTotals> {
    let mut t = RoundTotals {
        traced,
        ..RoundTotals::default()
    };
    let setup = Instant::now();
    let (mut daemon, clients) = set_up(cfg, traced, data_dir, checker)?;
    setups.push(setup.elapsed().as_secs_f64());
    let acknowledged: Vec<String> = wire::primed(&PRIME, traced)
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut sessions: Vec<Session> = clients
        .into_iter()
        .enumerate()
        .map(|(i, client)| Session {
            client,
            id: i + 1,
            acknowledged: acknowledged.clone(),
            designs: String::new(),
            replayed: Profile::default(),
            live: Profile::default(),
        })
        .collect();

    for cycle in 0..cycles {
        let scripts: Vec<Vec<Step>> = (0..CLIENTS)
            .map(|c| cycle_script(cfg.seed, c, cycle))
            .collect();
        let (secs, results) = wire::together(sessions.iter_mut().collect(), |c, s| {
            run_cycle(s, &scripts[c], spans.as_deref().map(SpanLog::sibling))
        });
        t.feed_section_secs += secs;
        for (r, steps) in results.into_iter().zip(&scripts) {
            t.requests += steps.len();
            t.request_ms += r.samples.0.values().flatten().sum::<f64>() * 1e3;
            checker.merge(r.checker);
            samples.merge(r.samples);
            if let (Some(all), Some(log)) = (spans.as_deref_mut(), r.spans) {
                all.adopt(log);
            }
        }

        // What the daemon must still know after the crash.
        let drifts: Vec<String> = sessions
            .iter_mut()
            .map(|s| s.client.request("drift").payload)
            .collect();
        if traced {
            for s in &mut sessions {
                let mut now = Profile::parse(&s.client.request("profile show").payload);
                now.subtract(&s.replayed);
                s.live.merge(&now);
            }
        }
        let report = sessions[0].client.request("server stats").payload;
        t.wal_records += wire::stat(&report, "wal_records").unwrap_or(0);
        t.wal_bytes += wire::stat(&report, "wal_bytes").unwrap_or(0);
        t.snapshots += wire::stat(&report, "snapshots_taken").unwrap_or(0);
        t.replayed_records += wire::stat(&report, "recovery_replayed_records").unwrap_or(0);
        t.shared_hits += wire::stat(&report, "inum_plan_cache_hits").unwrap_or(0);
        t.shared_misses += wire::stat(&report, "inum_plan_cache_misses").unwrap_or(0);
        t.rss_mb = t.rss_mb.max(daemon.peak_rss_mb());
        t.live_templates = drifts[0]
            .split(", ")
            .find_map(|part| part.strip_suffix(" template(s)")?.parse().ok())
            .unwrap_or(0);
        let Some(dir) = data_dir else { continue };
        checker.check(report.contains("durability on"), || {
            "the daemon lost durability".into()
        });

        // Crash, restart, and time until the first session is back.
        let crash = Instant::now();
        daemon.kill();
        daemon = match Daemon::spawn(&cfg.cli, Some(dir)) {
            Ok(d) => d,
            Err(e) => {
                checker.check(false, || format!("restart: {e}"));
                return None;
            }
        };
        for (i, s) in sessions.iter_mut().enumerate() {
            let line = format!("server attach {}", s.id);
            let attached = Client::connect(daemon.addr).map(|mut c| {
                let r = c.request(&line);
                (c, r)
            });
            let Ok((client, r)) = attached else {
                checker.check(false, || "cannot reconnect after restart".into());
                return None;
            };
            if i == 0 {
                let recover_secs = crash.elapsed().as_secs_f64();
                if let Some(log) = spans.as_deref_mut() {
                    log.record("recover", 0, recover_secs);
                }
                if r.ok {
                    samples.push("recover", recover_secs);
                }
            }
            checker.reply(&line, &r);
            s.client = client;
        }
        for (s, drift_before) in sessions.iter_mut().zip(&drifts) {
            let transcript = s.client.request("server transcript");
            checker.reply("server transcript", &transcript);
            checker.check(
                transcript.payload.trim_end() == s.acknowledged.join("\n"),
                || {
                    format!(
                        "session {}: transcript has {} lines, {} were acknowledged",
                        s.id,
                        transcript.payload.lines().count(),
                        s.acknowledged.len()
                    )
                },
            );
            let drift = s.client.request("drift");
            checker.reply("drift", &drift);
            checker.check(drift.payload == *drift_before, || {
                format!("session {}: `drift` changed across the crash", s.id)
            });
            if traced {
                s.replayed = Profile::parse(&s.client.request("profile show").payload);
            }
        }
    }
    for s in &sessions {
        t.journaled_cmds += s.acknowledged.len();
        t.journaled_bytes += s.acknowledged.iter().map(|l| l.len() + 1).sum::<usize>();
        t.designs.push_str(&s.designs);
        t.profile.merge(&s.live);
    }
    daemon.kill();
    Some(t)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let data_dir = cfg.tmp.join("data");
    let mut setups = extra_setups(|| set_up(cfg, false, Some(&data_dir), &mut out.checker));
    let mut totals: Vec<RoundTotals> = Vec::new();

    // Two sessions share the plan cache: which of them misses first is a
    // race, so the counters are not required to repeat exactly.
    let mut rounds = Rounds::new(cfg, false);
    while let Some(mut round) = rounds.next(cfg) {
        let traced = round.traced;
        let Some(t) = run_round(
            cfg,
            traced,
            Some(&data_dir),
            CYCLES,
            &mut out.checker,
            &mut samples,
            &mut setups,
            round.spans.as_mut(),
        ) else {
            break;
        };
        if let Some(first) = totals.first() {
            out.checker.check(first.designs == t.designs, || {
                "streamed designs changed between repetitions".into()
            });
        }
        // A traced session journals one line more (`profile on`).
        if let Some(same) = totals.iter().find(|o| o.traced == traced) {
            out.checker.check(same.wal_records == t.wal_records, || {
                "WAL record count changed between repetitions".into()
            });
        }
        rounds.done(
            round,
            t.feed_section_secs,
            t.request_ms,
            &t.profile,
            &mut out.checker,
        );
        totals.push(t);
    }
    std::fs::remove_dir_all(&data_dir).ok();
    if cfg.seed == PINNED_SEED {
        expected::compare(
            cfg,
            NAME,
            totals.first().map_or("", |t| &t.designs),
            &mut out.checker,
        );
    }

    let per_round = totals.len().max(1) as f64;
    let sum = |f: fn(&RoundTotals) -> f64| totals.iter().map(f).sum::<f64>();
    let rss = totals.iter().map(|t| t.rss_mb).fold(0.0, f64::max);
    let feed_ms: Vec<f64> = samples.get("feed").iter().map(|s| s * 1e3).collect();
    let amplification = sum(|t| t.wal_bytes as f64) / sum(|t| t.journaled_bytes as f64).max(1.0);
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setups),
        Metric::median("round_s", "s", &rounds.secs()),
        Metric::median("op_a_ms", "ms", samples.get("feed")),
        Metric::median("op_b_ms", "ms", samples.get("epoch_advise")),
        Metric::median("op_c_ms", "ms", samples.get("recover")),
        Metric::median("op_d_ms", "ms", samples.get("drift")),
        Metric::scalar("peak_rss_mb", "MB", rss),
    ];
    out.named = vec![
        Metric::scalar(
            "req_per_s",
            "1/s",
            sum(|t| t.requests as f64) / sum(|t| t.feed_section_secs).max(1e-9),
        ),
        Metric::median("feed_p50_ms", "ms", samples.get("feed")),
        Metric::scalar(
            "feed_p99_ms",
            "ms",
            stats::percentile(&stats::sorted(&feed_ms), 0.99),
        ),
        Metric::median("epoch_advise_p50_ms", "ms", samples.get("epoch_advise")),
        Metric::median("epoch_quiet_p50_ms", "ms", samples.get("epoch")),
        Metric::median("recover_s", "s", samples.get("recover")),
        Metric::median("drift_p50_ms", "ms", samples.get("drift")),
        Metric::median("constraint_p50_ms", "ms", samples.get("constraint")),
        Metric::scalar("wal_bytes_per_cmd_byte", "ratio", amplification),
        Metric::scalar(
            "wal_records_replayed",
            "count",
            sum(|t| t.replayed_records as f64) / per_round,
        ),
        Metric::scalar("peak_rss_mb", "MB", rss),
    ];
    rounds.finish(cfg, &mut out, |checker| {
        // The first cycle again on an ephemeral daemon: the same feeds
        // without the journal.
        let mut ephemeral = Samples::default();
        run_round(
            cfg,
            false,
            None,
            1,
            checker,
            &mut ephemeral,
            &mut Vec::new(),
            None,
        );
        let first_cycle = cycle_script(cfg.seed, 0, 0);
        LayerInputs {
            statements: first_cycle
                .iter()
                .filter_map(|s| s.line.strip_prefix("feed ").map(str::to_string))
                .collect(),
            journal_lines: first_cycle
                .iter()
                .filter(|s| s.journaled)
                .map(|s| s.line.clone())
                .collect(),
            live_templates: totals.last().map_or(0, |t| t.live_templates),
            shared_hits: totals.iter().map(|t| t.shared_hits).sum(),
            shared_misses: totals.iter().map(|t| t.shared_misses).sum(),
            wal_records: sum(|t| t.wal_records as f64) / per_round,
            wal_bytes: sum(|t| t.wal_bytes as f64) / per_round,
            snapshots_taken: sum(|t| t.snapshots as f64) / per_round,
            replayed_records: sum(|t| t.replayed_records as f64) / per_round,
            journaled_cmds: sum(|t| t.journaled_cmds as f64) / per_round,
            journaled_cmd_bytes: sum(|t| t.journaled_bytes as f64) / per_round,
            durability_overhead_x: stats::median(samples.get("feed"))
                / stats::median(ephemeral.get("feed")).max(1e-12),
            tail_light_ms: stats::tail(&feed_ms).1,
            ..LayerInputs::default()
        }
    });
    out
}
