//! What every workload shares: the run configuration, the failure
//! counter, latency samples, harness-side spans and the result record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats;
use crate::wire::Reply;

/// One run of one workload.
pub struct Config {
    pub seed: u64,
    /// Whole rounds are started until this much time has been measured.
    pub seconds: f64,
    /// Record the program's own tracer and harness spans on every second
    /// round, and run the per-layer probes.
    pub traced: bool,
    /// The `parinda-cli` binary under test.
    pub cli: PathBuf,
    /// Scratch directory of this run (inside the checkout).
    pub tmp: PathBuf,
    /// Directory holding the pinned designs of the default seed.
    pub expected: PathBuf,
    /// Rewrite the pinned design instead of comparing against it.
    pub write_expected: bool,
}

/// Set-ups made and thrown away before measuring, so that `setup_s` is a
/// median over this many more samples than the rounds alone give.
pub const EXTRA_SETUPS: usize = 8;

/// Time `set_up` [`EXTRA_SETUPS`] times, dropping what it builds.
pub fn extra_setups<T>(mut set_up: impl FnMut() -> Option<T>) -> Vec<f64> {
    (0..EXTRA_SETUPS)
        .filter_map(|_| {
            let start = Instant::now();
            set_up().map(|_| start.elapsed().as_secs_f64())
        })
        .collect()
}

/// The seed whose advised designs are pinned under `expected/`.
pub const PINNED_SEED: u64 = 42;

/// Counts requests, library calls and correctness checks, and which of
/// them failed. `failed / attempted` is `failed_share`.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checker {
    fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    /// One correctness check.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note);
        }
    }

    /// One wire request: anything but an `ok` frame fails it. Returns
    /// whether the reply may be used (for its latency and payload).
    pub fn reply(&mut self, line: &str, reply: &Reply) -> bool {
        self.attempted += 1;
        if !reply.ok {
            self.fail(|| {
                let shown: String = line.chars().take(60).collect();
                format!(
                    "`{shown}` -> {}",
                    reply.payload.lines().next().unwrap_or("(no reply)")
                )
            });
        }
        reply.ok
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Latency samples (seconds) by request class.
#[derive(Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, class: &'static str, secs: f64) {
        self.0.entry(class).or_default().push(secs);
    }

    pub fn merge(&mut self, other: Samples) {
        for (class, mut v) in other.0 {
            self.0.entry(class).or_default().append(&mut v);
        }
    }

    pub fn get(&self, class: &str) -> &[f64] {
        self.0.get(class).map_or(&[], Vec::as_slice)
    }
}

/// One harness-side span: a wire request or a direct library call, as
/// the benchmark saw it from outside the program.
pub struct Span {
    pub name: &'static str,
    /// The round's own span is the parent of every request in it.
    pub parent: Option<usize>,
    /// Requests of one client session share an identifier.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, written out once when the benchmark ends.
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// A log for another thread, on the same clock.
    pub fn sibling(&self) -> SpanLog {
        SpanLog::new(self.origin)
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span that ends now and lasted `secs`.
    pub fn record(&mut self, name: &'static str, request: u64, secs: f64) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub((secs * 1e9) as u64);
        self.spans.push(Span {
            name,
            parent: None,
            request,
            start_ns,
            end_ns,
        });
    }

    /// Record a span that began at `start_ns` (a [`SpanLog::now_ns`]
    /// reading) and ends now, and make it the parent of `children`.
    pub fn enclose(&mut self, name: &'static str, start_ns: u64, children: SpanLog) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: None,
            request: 0,
            start_ns,
            end_ns,
        });
        let parent = Some(self.spans.len() - 1);
        self.spans
            .extend(children.spans.into_iter().map(|s| Span { parent, ..s }));
    }

    /// Take over another thread's spans.
    pub fn adopt(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Self time per span name, ns: a span's duration minus the part its
    /// children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\":{i},\"name\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    stats::json_str(s.name),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// One reported number.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises (1 for a count or a ratio).
    pub samples: usize,
    /// The highest percentile with ten samples beyond it (or the
    /// maximum), when the value is a median of latencies.
    pub tail: Option<(&'static str, f64)>,
}

impl Metric {
    pub fn scalar(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: 1,
            tail: None,
        }
    }

    /// Median of latency samples given in seconds, reported in `unit`
    /// (`ms` or `s`).
    pub fn median(name: &str, unit: &'static str, secs: &[f64]) -> Metric {
        let scale = if unit == "ms" { 1e3 } else { 1.0 };
        let scaled: Vec<f64> = secs.iter().map(|s| s * scale).collect();
        Metric {
            name: name.to_string(),
            unit,
            value: stats::median(&scaled),
            samples: scaled.len(),
            tail: (!scaled.is_empty()).then(|| stats::tail(&scaled)),
        }
    }
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub checker: Checker,
    /// The metrics `BENCHMARK.json` names under `end_to_end`.
    pub end_to_end: Vec<Metric>,
    /// The same measurements (and a few more) under the names the
    /// workload's own vocabulary gives them, e.g. `feed_p50_ms`.
    pub named: Vec<Metric>,
    /// The metrics `BENCHMARK.json` names under `per_layer` (traced runs).
    pub per_layer: Vec<Metric>,
    pub rounds: usize,
    /// Harness spans of the traced rounds.
    pub spans: Option<SpanLog>,
    /// Span totals and counters of the program's own tracer, as JSON.
    pub program_trace: Option<String>,
}
