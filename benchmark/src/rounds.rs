//! The round loop's bookkeeping, the same in every workload: how many
//! rounds to run, which of them are traced, their wall-clock, and the
//! program's profile and the harness spans of the traced ones.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::common::{Checker, Config, Outcome, SpanLog};
use crate::layers::{self, LayerInputs};
use crate::profile::Profile;
use crate::stats;

pub struct Rounds {
    started: usize,
    measure: Instant,
    spans: Option<SpanLog>,
    profile: Profile,
    untraced_secs: Vec<f64>,
    traced_secs: Vec<f64>,
    traced_request_ms: f64,
    /// Whether the program's counters must repeat exactly from traced
    /// round to traced round.
    exact_counters: bool,
    first_counters: Option<BTreeMap<String, u64>>,
}

/// One round in flight.
pub struct Round {
    /// Switch the program's tracer on and record harness spans.
    pub traced: bool,
    /// Where the round's harness spans go (traced rounds only).
    pub spans: Option<SpanLog>,
    start_ns: u64,
}

impl Rounds {
    /// `exact_counters`: the program's counters do not depend on how
    /// concurrent sessions interleave (true with one client, and with
    /// sessions that share no work), so they must repeat exactly.
    pub fn new(cfg: &Config, exact_counters: bool) -> Rounds {
        let measure = Instant::now();
        Rounds {
            started: 0,
            measure,
            spans: cfg.traced.then(|| SpanLog::new(measure)),
            profile: Profile::default(),
            untraced_secs: Vec::new(),
            traced_secs: Vec::new(),
            traced_request_ms: 0.0,
            exact_counters,
            first_counters: None,
        }
    }

    /// The next round, or `None` when the run is over: at least one round
    /// (two in a traced run, one for each side of the comparison), then
    /// whole rounds until `--seconds` have been measured. In a traced run
    /// every second round records; the others are the untraced side of
    /// `trace.overhead_pct`.
    pub fn next(&mut self, cfg: &Config) -> Option<Round> {
        let least = if cfg.traced { 2 } else { 1 };
        if self.started >= least && self.measure.elapsed().as_secs_f64() >= cfg.seconds {
            return None;
        }
        let traced = cfg.traced && self.started % 2 == 1;
        self.started += 1;
        Some(Round {
            traced,
            spans: self.spans.as_ref().filter(|_| traced).map(SpanLog::sibling),
            start_ns: self.spans.as_ref().map_or(0, SpanLog::now_ns),
        })
    }

    /// Book a completed round: its measured wall-clock and, if it was
    /// traced, the total latency of its requests and what the program's
    /// tracer recorded.
    pub fn done(
        &mut self,
        round: Round,
        secs: f64,
        request_ms: f64,
        profile: &Profile,
        checker: &mut Checker,
    ) {
        if !round.traced {
            self.untraced_secs.push(secs);
            return;
        }
        match &self.first_counters {
            _ if !self.exact_counters => {}
            None => self.first_counters = Some(profile.counters.clone()),
            Some(c) => checker.check(*c == profile.counters, || {
                "program counters changed between rounds".into()
            }),
        }
        self.profile.merge(profile);
        self.traced_request_ms += request_ms;
        self.traced_secs.push(secs);
        if let (Some(log), Some(spans)) = (self.spans.as_mut(), round.spans) {
            log.enclose("round", round.start_ns, spans);
        }
    }

    /// Wall-clock of every round, untraced and traced.
    pub fn secs(&self) -> Vec<f64> {
        self.untraced_secs
            .iter()
            .chain(&self.traced_secs)
            .copied()
            .collect()
    }

    /// Close the run: the round count and, for a traced run, the per-layer
    /// metrics (the workload's own `inputs` completed with what was booked
    /// here), the program's profile and the harness spans.
    pub fn finish(
        self,
        cfg: &Config,
        out: &mut Outcome,
        inputs: impl FnOnce(&mut Checker) -> LayerInputs,
    ) {
        out.rounds = self.started;
        if !cfg.traced {
            return;
        }
        let (untraced, traced) = (
            stats::median(&self.untraced_secs),
            stats::median(&self.traced_secs),
        );
        let inputs = LayerInputs {
            traced_rounds: self.traced_secs.len(),
            overhead_pct: if untraced > 0.0 {
                (traced - untraced) / untraced * 100.0
            } else {
                0.0
            },
            traced_request_ms: self.traced_request_ms,
            ..inputs(&mut out.checker)
        };
        out.per_layer = layers::per_layer(&inputs, &self.profile, &cfg.tmp);
        out.program_trace = Some(self.profile.to_json());
        out.spans = self.spans;
    }
}
