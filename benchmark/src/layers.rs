//! The per-layer metrics of a traced run. Layers are the crate
//! directories. Every workload reports every metric; one whose layer the
//! workload bypasses reads 0 (no WAL records without a data dir, no
//! clustering on the wire), which is the "should not move" prediction
//! made visible.
//!
//! Three sources: the program's own tracer (span totals and counters,
//! switched on from outside), `server stats`, and probes — direct calls
//! into one layer's public functions on this workload's own statements.

use std::path::Path;

use crate::adapter;
use crate::common::Metric;
use crate::profile::Profile;

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workload.fingerprint_ns_per_stmt", "ns", "lower"),
    ("workload.cluster_ms", "ms", "lower"),
    ("workload.templates_merged", "count", "higher"),
    ("sql.parse_us_per_stmt", "us", "lower"),
    ("sql.parse_span_ms", "ms", "lower"),
    ("optimizer.plan_us_per_query", "us", "lower"),
    ("optimizer.plan_span_ms", "ms", "lower"),
    ("optimizer.invocations", "count", "lower"),
    ("whatif.span_ms_per_eval", "ms", "lower"),
    ("whatif.simulate_us", "us", "lower"),
    ("inum.build_ms", "ms", "lower"),
    ("inum.delta_ms", "ms", "lower"),
    ("inum.bind_ms", "ms", "lower"),
    ("inum.populate_ms", "ms", "lower"),
    ("inum.cost_ns_per_call", "ns", "lower"),
    ("inum.cache_hit_ratio", "ratio", "higher"),
    ("inum.shared_hit_ratio", "ratio", "higher"),
    ("inum.delta_reuse_ratio", "ratio", "higher"),
    ("advisor.ilp_ms", "ms", "lower"),
    ("advisor.benefit_matrix_ms", "ms", "lower"),
    ("advisor.greedy_ms", "ms", "lower"),
    ("advisor.autopart_ms", "ms", "lower"),
    ("advisor.candidates_evaluated", "count", "lower"),
    ("advisor.matrix_nnz", "count", "lower"),
    ("solver.bnb_ms", "ms", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.pruned_by_incumbent", "count", "higher"),
    ("solver.us_per_node", "us", "lower"),
    ("parallel.autopart_speedup_2t", "ratio", "higher"),
    ("stream.epoch_advance_ms", "ms", "lower"),
    ("stream.epoch_self_ms", "ms", "lower"),
    ("stream.drift_check_ms", "ms", "lower"),
    ("stream.feed_ns_per_stmt", "ns", "lower"),
    ("stream.live_templates", "count", "lower"),
    ("durability.append_us", "us", "lower"),
    ("durability.append_sync_us", "us", "lower"),
    ("durability.snapshot_ms_per_1k", "ms", "lower"),
    ("durability.recover_ms_per_1k", "ms", "lower"),
    ("durability.wal_records", "count", "lower"),
    ("durability.wal_bytes", "count", "lower"),
    ("durability.snapshots_taken", "count", "lower"),
    ("durability.fsyncs_per_cmd", "ratio", "lower"),
    ("durability.wal_bytes_per_cmd_byte", "ratio", "lower"),
    ("durability.replayed_records", "count", "lower"),
    ("durability.overhead_x", "ratio", "lower"),
    ("server.rtt_us", "us", "lower"),
    ("server.self_us", "us", "lower"),
    ("core.dispatch_us", "us", "lower"),
    ("tail.light_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
];

/// What a workload measured in its traced rounds; everything it does not
/// set stays 0.
#[derive(Default)]
pub struct LayerInputs {
    pub traced_rounds: usize,
    /// SQL statements this workload sent (probe inputs).
    pub statements: Vec<String>,
    /// Journaled command lines (durability probe inputs); empty when the
    /// workload runs without a data dir.
    pub journal_lines: Vec<String>,
    /// `inum_plan_cache_hits` / `_misses` from `server stats`.
    pub shared_hits: u64,
    pub shared_misses: u64,
    /// Live stream templates after the last epoch.
    pub live_templates: u64,
    /// `server stats` durability counters, summed over daemon
    /// incarnations and divided by rounds.
    pub wal_records: f64,
    pub wal_bytes: f64,
    pub snapshots_taken: f64,
    pub replayed_records: f64,
    /// Journaled commands sent per round, and their bytes.
    pub journaled_cmds: f64,
    pub journaled_cmd_bytes: f64,
    /// Journaled feed p50 over ephemeral feed p50 of the same script.
    pub durability_overhead_x: f64,
    /// Empty-line round trip, µs.
    pub rtt_us: f64,
    /// Median wire latency of the light verbs, and of the same lines run
    /// in-process through `Console::run_line`, µs.
    pub wire_light_us: f64,
    pub dispatch_us: f64,
    /// Highest supported percentile of the workload's most frequent
    /// request (printed, never gated: it depends on scheduling and fsync).
    pub tail_light_ms: f64,
    pub autopart_speedup_2t: f64,
    pub overhead_pct: f64,
    /// Total request (or library call) time of the traced rounds, ms.
    pub traced_request_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Compute every per-layer metric. `p` is the program's tracer, merged
/// over sessions and traced rounds; span totals and counters are reported
/// per traced round. `probe_dir` is scratch space for the WAL probe.
pub fn per_layer(inp: &LayerInputs, p: &Profile, probe_dir: &Path) -> Vec<Metric> {
    let rounds = inp.traced_rounds.max(1) as f64;
    let span = |path: &str| p.span_ms(path) / rounds;
    let counter = |name: &str| p.counter(name) as f64 / rounds;

    let catalog = adapter::paper_catalog();
    let sample = &inp.statements[..inp.statements.len().min(2000)];
    let wal = (!inp.journal_lines.is_empty())
        .then(|| adapter::wal_probe(probe_dir, &inp.journal_lines).ok())
        .flatten();
    let wal = |f: fn(&adapter::WalProbe) -> f64| wal.as_ref().map_or(0.0, f);

    let epoch_nested =
        span("drift_check") + span("inum_build") + span("inum_delta") + span("ilp_rounds");
    let epoch_self = if p.span_count("epoch_advance") > 0 {
        span("epoch_advance") - epoch_nested
    } else {
        0.0
    };

    let values: [f64; PER_LAYER.len()] = [
        adapter::fingerprint_ns(sample),
        span("cluster"),
        counter("templates_merged"),
        adapter::parse_us(sample),
        span("parse"),
        adapter::plan_us(&catalog, sample),
        span("plan"),
        counter("optimizer_invocations"),
        ratio(p.span_ms("whatif"), p.span_count("whatif") as f64),
        adapter::simulate_index_us(&catalog),
        span("inum_build"),
        span("inum_delta"),
        span("inum_build/bind") + span("inum_delta/bind"),
        span("inum_build/populate") + span("inum_delta/populate"),
        adapter::inum_cost_ns(&catalog, sample),
        ratio(
            p.counter("inum_cache_hits") as f64,
            (p.counter("inum_cache_hits") + p.counter("inum_cache_misses")) as f64,
        ),
        ratio(
            inp.shared_hits as f64,
            (inp.shared_hits + inp.shared_misses) as f64,
        ),
        ratio(
            p.counter("inum_delta_reused") as f64,
            (p.counter("inum_delta_reused") + p.counter("inum_delta_rebuilt")) as f64,
        ),
        span("ilp_rounds"),
        span("ilp_rounds/benefit_matrix"),
        span("greedy_rounds"),
        span("autopart_rounds"),
        counter("candidates_evaluated"),
        counter("matrix_nnz"),
        span("ilp_rounds/bnb"),
        counter("solver_nodes"),
        counter("bnb_pruned_by_incumbent"),
        ratio(
            p.span_ms("ilp_rounds/bnb") * 1e3,
            p.counter("solver_nodes") as f64,
        ),
        inp.autopart_speedup_2t,
        span("epoch_advance"),
        epoch_self,
        span("drift_check"),
        adapter::stream_feed_ns(sample),
        inp.live_templates as f64,
        wal(|w| w.append_ms_per_1k),
        wal(|w| w.append_sync_ms_per_1k),
        wal(|w| w.snapshot_ms),
        wal(|w| w.recover_ms_per_1k),
        inp.wal_records,
        inp.wal_bytes,
        inp.snapshots_taken,
        ratio(inp.wal_records, inp.journaled_cmds),
        ratio(inp.wal_bytes, inp.journaled_cmd_bytes),
        inp.replayed_records,
        inp.durability_overhead_x,
        inp.rtt_us,
        if inp.wire_light_us > 0.0 {
            inp.wire_light_us - inp.dispatch_us
        } else {
            0.0
        },
        inp.dispatch_us,
        inp.tail_light_ms,
        inp.overhead_pct,
        ratio(p.covered_ms() * 100.0, inp.traced_request_ms),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric::scalar(name, unit, value))
        .collect()
}
