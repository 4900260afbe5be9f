//! # parinda-stream
//!
//! Continuous tuning: an epoch-based streaming workload accumulator on
//! top of the template clustering from `parinda-workload` (ROADMAP open
//! item 3, after *Semi-Automatic Index Tuning: Keeping DBAs in the
//! Loop* and AIM's continuous fleet advising).
//!
//! Statements [`feed`](StreamAccumulator::feed) in one at a time and
//! fold into fingerprint-keyed templates exactly as batch compression
//! does. Template weights carry across epochs with an **exponential
//! decay applied in fixed-point integer arithmetic, keyed to the epoch
//! counter** — never to wall-clock time — so a replayed stream produces
//! bit-identical weights on any machine at any speed. A drift detector
//! scores the total-variation distance between consecutive epochs'
//! template distributions; the console re-advises when the score
//! crosses a threshold.
//!
//! The DBA steers the stream through a [`ConstraintStore`]: `pin`
//! forces an index into every future design (consuming storage budget
//! first), `ban` removes it from the solver's search space. Both are
//! plain ordered sets of index names so the constraint state serializes
//! deterministically through the metadata WAL.
//!
//! ## Determinism contract
//!
//! * Feeding is commutative within an epoch: weights accumulate by
//!   integer addition into a fingerprint-keyed map, so any permutation
//!   of the same statements yields the same epoch state.
//! * Decay is `w ← ⌊w·num/den⌋` per epoch — integer floor division,
//!   no floats, no clocks.
//! * New templates are committed in fingerprint order, existing ones
//!   keep their positions: the template vector is a pure function of
//!   the multiset of statements fed per epoch.
//! * [`drift_ppm`] is symmetric and zero on identical distributions.

#![deny(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};

use parinda_failpoint::should_fail;
use parinda_sql::{parse_select, Select};
use parinda_trace::Trace;
use parinda_workload::{fingerprint, CompressedWorkload, QueryTemplate};

/// Fixed-point scale for template weights: 1.0 statements = 1_000_000
/// micro-statements. All decay arithmetic happens in these units.
pub const WEIGHT_SCALE: u64 = 1_000_000;

/// Default decay numerator: weights halve each epoch a template stays
/// silent (`w ← ⌊w·1/2⌋`).
pub const DEFAULT_DECAY_NUM: u64 = 1;

/// Default decay denominator. See [`DEFAULT_DECAY_NUM`].
pub const DEFAULT_DECAY_DEN: u64 = 2;

/// Templates whose decayed weight falls strictly below this many
/// micro-statements (0.01 statements) are evicted at epoch advance.
pub const DEFAULT_EVICT_THRESHOLD_FP: u64 = WEIGHT_SCALE / 100;

/// Drift scores are parts-per-million of total variation: 1_000_000
/// means the epochs share no probability mass.
pub const DRIFT_SCALE: u64 = 1_000_000;

/// A typed streaming error. Maps onto the console's `error [parse]:` /
/// `error [advisor]:` reply families — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The fed statement did not parse.
    Parse(String),
    /// A DBA constraint is contradictory (e.g. pin of a banned index).
    Constraint(String),
    /// A failpoint injected a fault at the named site.
    Injected(&'static str),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Parse(msg) => write!(f, "{msg}"),
            StreamError::Constraint(msg) => write!(f, "{msg}"),
            StreamError::Injected(site) => write!(f, "failpoint {site}: injected error"),
        }
    }
}

impl std::error::Error for StreamError {}

/// One streaming template: a fingerprint-keyed cluster whose weight
/// decays across epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTemplate {
    /// First-seen member statement, used to plan/cost the cluster.
    pub query: Select,
    /// Normalized text that keys the cluster.
    pub fingerprint: String,
    /// Decayed weight in micro-statements ([`WEIGHT_SCALE`] units).
    pub weight_fp: u64,
    /// Raw statements folded in over the template's lifetime.
    pub members: u64,
    /// Epoch the template first appeared in (0-based: the epoch counter
    /// *before* the advance that committed it).
    pub first_epoch: u64,
    /// Last epoch with fresh arrivals for this template.
    pub last_epoch: u64,
}

impl StreamTemplate {
    /// Weight as fractional statements (for the advisor's f64 pipeline).
    pub fn weight(&self) -> f64 {
        self.weight_fp as f64 / WEIGHT_SCALE as f64
    }
}

/// What one [`StreamAccumulator::advance_epoch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSummary {
    /// Epoch counter after the advance (first advance reports 1).
    pub epoch: u64,
    /// Live templates after decay, merge, and eviction.
    pub templates: usize,
    /// Templates that appeared for the first time this epoch.
    pub arrived: usize,
    /// Templates evicted because decay took them below threshold.
    pub evicted: usize,
    /// Sum of live template weights, micro-statements.
    pub total_weight_fp: u64,
    /// Total-variation distance to the previous epoch's distribution,
    /// in parts per million ([`DRIFT_SCALE`]).
    pub drift_ppm: u64,
}

struct Pending {
    query: Select,
    weight_fp: u64,
    members: u64,
}

/// Epoch-based streaming workload accumulator. Single-writer by design:
/// the owning console serializes mutations (and the daemon's WAL
/// journals them), so the accumulator itself holds no locks.
pub struct StreamAccumulator {
    epoch: u64,
    decay_num: u64,
    decay_den: u64,
    evict_threshold_fp: u64,
    templates: Vec<StreamTemplate>,
    by_fp: BTreeMap<String, usize>,
    pending: BTreeMap<String, Pending>,
    prev_dist: Vec<(String, u64)>,
    last_drift_ppm: u64,
    statements_fed: u64,
}

impl Default for StreamAccumulator {
    fn default() -> Self {
        StreamAccumulator::new()
    }
}

impl StreamAccumulator {
    /// An empty accumulator with the default half-life decay and
    /// eviction threshold.
    pub fn new() -> StreamAccumulator {
        StreamAccumulator::with_decay(DEFAULT_DECAY_NUM, DEFAULT_DECAY_DEN)
    }

    /// An empty accumulator with a custom per-epoch decay ratio
    /// `num/den` (clamped to `num < den`, `den > 0`).
    pub fn with_decay(num: u64, den: u64) -> StreamAccumulator {
        let den = den.max(1);
        StreamAccumulator {
            epoch: 0,
            decay_num: num.min(den.saturating_sub(1)),
            decay_den: den,
            evict_threshold_fp: DEFAULT_EVICT_THRESHOLD_FP,
            templates: Vec::new(),
            by_fp: BTreeMap::new(),
            pending: BTreeMap::new(),
            prev_dist: Vec::new(),
            last_drift_ppm: 0,
            statements_fed: 0,
        }
    }

    /// Feed one statement with weight 1.0 (one micro-scaled statement).
    pub fn feed(&mut self, sql: &str) -> Result<(), StreamError> {
        self.feed_weighted(sql, WEIGHT_SCALE)
    }

    /// Feed one statement with an explicit weight in micro-statements.
    /// Accumulation is a fingerprint-keyed integer add, so feeding order
    /// within an epoch cannot change the epoch's outcome.
    pub fn feed_weighted(&mut self, sql: &str, weight_fp: u64) -> Result<(), StreamError> {
        if should_fail("stream::feed") {
            return Err(StreamError::Injected("stream::feed"));
        }
        let query = parse_select(sql).map_err(|e| StreamError::Parse(e.to_string()))?;
        // Fingerprint the *canonical* rendering, exactly as batch
        // compression does, so streamed and batch clusters key the same.
        let fp = fingerprint(&query.to_string());
        let entry = self.pending.entry(fp).or_insert(Pending {
            query,
            weight_fp: 0,
            members: 0,
        });
        entry.weight_fp = entry.weight_fp.saturating_add(weight_fp);
        entry.members += 1;
        self.statements_fed += 1;
        Ok(())
    }

    /// Close the current epoch: decay every live template, merge the
    /// epoch's arrivals at full weight, evict templates that decayed
    /// below threshold, and score drift against the previous epoch.
    ///
    /// All state is computed into locals and committed only at the end,
    /// so an injected fault (`stream::epoch`, `stream::drift`) leaves
    /// the accumulator exactly as it was.
    pub fn advance_epoch(&mut self, trace: &Trace) -> Result<EpochSummary, StreamError> {
        if should_fail("stream::epoch") {
            return Err(StreamError::Injected("stream::epoch"));
        }
        // 1. Decay survivors from previous epochs.
        let mut templates: Vec<StreamTemplate> = self
            .templates
            .iter()
            .map(|t| {
                let mut t = t.clone();
                t.weight_fp = t.weight_fp * self.decay_num / self.decay_den;
                t
            })
            .collect();
        let mut by_fp: BTreeMap<String, usize> = self.by_fp.clone();
        // 2. Merge this epoch's arrivals at full weight. BTreeMap
        //    iteration commits new templates in fingerprint order,
        //    erasing any dependence on feed order.
        let mut arrived = 0usize;
        for (fp, p) in &self.pending {
            match by_fp.get(fp) {
                Some(&i) => {
                    templates[i].weight_fp = templates[i].weight_fp.saturating_add(p.weight_fp);
                    templates[i].members += p.members;
                    templates[i].last_epoch = self.epoch;
                }
                None => {
                    arrived += 1;
                    by_fp.insert(fp.clone(), templates.len());
                    templates.push(StreamTemplate {
                        query: p.query.clone(),
                        fingerprint: fp.clone(),
                        weight_fp: p.weight_fp,
                        members: p.members,
                        first_epoch: self.epoch,
                        last_epoch: self.epoch,
                    });
                }
            }
        }
        // 3. Evict templates whose decayed weight fell below threshold.
        let before = templates.len();
        templates.retain(|t| t.weight_fp >= self.evict_threshold_fp);
        let evicted = before - templates.len();
        let by_fp: BTreeMap<String, usize> =
            templates.iter().enumerate().map(|(i, t)| (t.fingerprint.clone(), i)).collect();
        // 4. Score drift between the previous and the new distribution.
        let dist = distribution(&templates);
        let drift = {
            let _span = trace.span("drift_check");
            if should_fail("stream::drift") {
                return Err(StreamError::Injected("stream::drift"));
            }
            drift_ppm(&self.prev_dist, &dist)
        };
        // 5. Commit.
        let total_weight_fp = templates.iter().map(|t| t.weight_fp).sum();
        self.epoch += 1;
        self.templates = templates;
        self.by_fp = by_fp;
        self.pending.clear();
        self.prev_dist = dist;
        self.last_drift_ppm = drift;
        Ok(EpochSummary {
            epoch: self.epoch,
            templates: self.templates.len(),
            arrived,
            evicted,
            total_weight_fp,
            drift_ppm: drift,
        })
    }

    /// Epochs advanced so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live templates in committed order.
    pub fn templates(&self) -> &[StreamTemplate] {
        &self.templates
    }

    /// Statements fed since creation (including not-yet-committed ones).
    pub fn statements_fed(&self) -> u64 {
        self.statements_fed
    }

    /// Statements fed but not yet folded in by an epoch advance.
    pub fn pending_statements(&self) -> u64 {
        self.pending.values().map(|p| p.members).sum()
    }

    /// Drift score of the most recent epoch advance, in ppm.
    pub fn last_drift_ppm(&self) -> u64 {
        self.last_drift_ppm
    }

    /// Representative statements of live templates, parallel to
    /// [`Self::weights`].
    pub fn queries(&self) -> Vec<Select> {
        self.templates.iter().map(|t| t.query.clone()).collect()
    }

    /// Decayed per-template weights as fractional statements, parallel
    /// to [`Self::queries`].
    pub fn weights(&self) -> Vec<f64> {
        self.templates.iter().map(|t| t.weight()).collect()
    }

    /// The live epoch state as a batch [`CompressedWorkload`] — the
    /// bridge to every existing weighted-advisor entry point.
    pub fn compressed(&self) -> CompressedWorkload {
        let templates: Vec<QueryTemplate> = self
            .templates
            .iter()
            .map(|t| QueryTemplate {
                query: t.query.clone(),
                weight: t.weight(),
                members: t.members as usize,
                fingerprint: t.fingerprint.clone(),
            })
            .collect();
        let raw_statements = templates.iter().map(|t| t.members).sum();
        let raw_weight = templates.iter().map(|t| t.weight).sum();
        CompressedWorkload { templates, raw_statements, raw_weight }
    }
}

/// Normalize live template weights into a (fingerprint, ppm-share)
/// distribution, fingerprint-sorted.
fn distribution(templates: &[StreamTemplate]) -> Vec<(String, u64)> {
    let total: u64 = templates.iter().map(|t| t.weight_fp).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut dist: Vec<(String, u64)> = templates
        .iter()
        .map(|t| (t.fingerprint.clone(), t.weight_fp.saturating_mul(DRIFT_SCALE) / total))
        .collect();
    dist.sort();
    dist
}

/// Total-variation distance between two normalized template
/// distributions, in parts per million: `Σ|p − q| / 2` over the union
/// of fingerprints. Symmetric, zero for identical distributions,
/// [`DRIFT_SCALE`] for disjoint supports. An empty distribution against
/// a non-empty one scores [`DRIFT_SCALE`] (the first epoch is maximal
/// drift by convention).
pub fn drift_ppm(a: &[(String, u64)], b: &[(String, u64)]) -> u64 {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return 0,
        (true, false) | (false, true) => return DRIFT_SCALE,
        (false, false) => {}
    }
    let am: BTreeMap<&str, u64> = a.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let bm: BTreeMap<&str, u64> = b.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut sum = 0u64;
    let keys: BTreeSet<&str> = am.keys().chain(bm.keys()).copied().collect();
    for k in keys {
        let p = am.get(k).copied().unwrap_or(0);
        let q = bm.get(k).copied().unwrap_or(0);
        sum = sum.saturating_add(p.abs_diff(q));
    }
    sum / 2
}

/// The DBA's standing constraints on the physical design. Ordered sets
/// of index display names, so WAL-recovered state and in-memory state
/// compare bit-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintStore {
    pinned: BTreeSet<String>,
    banned: BTreeSet<String>,
}

impl ConstraintStore {
    /// An empty store.
    pub fn new() -> ConstraintStore {
        ConstraintStore::default()
    }

    /// Force `name` into every future design. Errors if `name` is
    /// currently banned — the DBA must `reject` the ban first.
    pub fn pin(&mut self, name: &str) -> Result<(), StreamError> {
        let name = valid_name(name)?;
        if self.banned.contains(name) {
            return Err(StreamError::Constraint(format!(
                "index `{name}` is banned; remove the ban before pinning it"
            )));
        }
        self.pinned.insert(name.to_string());
        Ok(())
    }

    /// Remove `name` from the solver's search space in every future
    /// design. Errors if `name` is currently pinned.
    pub fn ban(&mut self, name: &str) -> Result<(), StreamError> {
        let name = valid_name(name)?;
        if self.pinned.contains(name) {
            return Err(StreamError::Constraint(format!(
                "index `{name}` is pinned; remove the pin before banning it"
            )));
        }
        self.banned.insert(name.to_string());
        Ok(())
    }

    /// Drop a pin (no-op if absent). Returns whether it was present.
    pub fn unpin(&mut self, name: &str) -> bool {
        self.pinned.remove(name.trim())
    }

    /// Drop a ban (no-op if absent). Returns whether it was present.
    pub fn unban(&mut self, name: &str) -> bool {
        self.banned.remove(name.trim())
    }

    /// Pinned index names, sorted.
    pub fn pinned(&self) -> impl Iterator<Item = &str> {
        self.pinned.iter().map(String::as_str)
    }

    /// Banned index names, sorted.
    pub fn banned(&self) -> impl Iterator<Item = &str> {
        self.banned.iter().map(String::as_str)
    }
}

fn valid_name(name: &str) -> Result<&str, StreamError> {
    let name = name.trim();
    if name.is_empty() {
        return Err(StreamError::Constraint("empty index name".to_string()));
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(acc: &mut StreamAccumulator, stmts: &[&str]) {
        for s in stmts {
            acc.feed(s).expect("test statement feeds");
        }
    }

    #[test]
    fn feeding_clusters_by_fingerprint() {
        let mut acc = StreamAccumulator::new();
        feed_all(
            &mut acc,
            &[
                "SELECT a FROM t WHERE b = 1",
                "SELECT a FROM t WHERE b = 99",
                "SELECT a FROM t WHERE c = 1",
            ],
        );
        let s = acc.advance_epoch(&Trace::disabled()).expect("epoch advances");
        assert_eq!(s.epoch, 1);
        assert_eq!(s.templates, 2);
        assert_eq!(s.arrived, 2);
        assert_eq!(s.drift_ppm, DRIFT_SCALE); // first epoch: maximal by convention
        assert_eq!(s.total_weight_fp, 3 * WEIGHT_SCALE);
        assert_eq!(acc.statements_fed(), 3);
    }

    #[test]
    fn feed_order_cannot_change_the_epoch() {
        let stmts =
            ["SELECT a FROM t WHERE b = 1", "SELECT c FROM u WHERE d = 2", "SELECT a FROM t WHERE b = 7"];
        let mut fwd = StreamAccumulator::new();
        feed_all(&mut fwd, &stmts);
        let mut rev = StreamAccumulator::new();
        for s in stmts.iter().rev() {
            rev.feed(s).expect("feeds");
        }
        let sf = fwd.advance_epoch(&Trace::disabled()).expect("epoch");
        let sr = rev.advance_epoch(&Trace::disabled()).expect("epoch");
        assert_eq!(sf, sr);
        // Weights, fingerprints, and ordering are feed-order-free; only
        // the first-seen representative (like batch compression's) may
        // carry different literals.
        let shape = |acc: &StreamAccumulator| {
            acc.templates()
                .iter()
                .map(|t| (t.fingerprint.clone(), t.weight_fp, t.members))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&fwd), shape(&rev));
    }

    #[test]
    fn silent_templates_decay_and_evict() {
        let mut acc = StreamAccumulator::new();
        acc.feed("SELECT a FROM t WHERE b = 1").expect("feeds");
        acc.advance_epoch(&Trace::disabled()).expect("epoch");
        let mut prev = acc.templates()[0].weight_fp;
        // halves every silent epoch, strictly, until eviction
        loop {
            acc.advance_epoch(&Trace::disabled()).expect("epoch");
            if acc.templates().is_empty() {
                break;
            }
            let w = acc.templates()[0].weight_fp;
            assert!(w < prev, "decay must strictly shrink ({w} !< {prev})");
            assert_eq!(w, prev / 2);
            prev = w;
        }
        // 1.0 halves below 0.01 within 7 epochs
        assert!(acc.epoch() <= 9, "eviction took {} epochs", acc.epoch());
    }

    #[test]
    fn refeeding_keeps_a_template_alive() {
        let mut acc = StreamAccumulator::new();
        for _ in 0..20 {
            acc.feed("SELECT a FROM t WHERE b = 3").expect("feeds");
            acc.advance_epoch(&Trace::disabled()).expect("epoch");
        }
        assert_eq!(acc.templates().len(), 1);
        // steady state: w = w/2 + 1  →  w → 2.0 from below
        let w = acc.templates()[0].weight_fp;
        assert!(w > WEIGHT_SCALE && w <= 2 * WEIGHT_SCALE, "steady-state weight {w}");
    }

    #[test]
    fn drift_is_zero_for_identical_epochs_and_maximal_for_disjoint() {
        let mut acc = StreamAccumulator::new();
        acc.feed("SELECT a FROM t WHERE b = 1").expect("feeds");
        acc.advance_epoch(&Trace::disabled()).expect("epoch");
        // same template again: same normalized distribution, zero drift
        acc.feed("SELECT a FROM t WHERE b = 2").expect("feeds");
        let s = acc.advance_epoch(&Trace::disabled()).expect("epoch");
        assert_eq!(s.drift_ppm, 0);
        let a = vec![("q1".to_string(), DRIFT_SCALE)];
        let b = vec![("q2".to_string(), DRIFT_SCALE)];
        assert_eq!(drift_ppm(&a, &b), DRIFT_SCALE);
        assert_eq!(drift_ppm(&a, &a), 0);
        assert_eq!(drift_ppm(&[], &[]), 0);
        assert_eq!(drift_ppm(&[], &a), DRIFT_SCALE);
        assert_eq!(drift_ppm(&a, &[]), DRIFT_SCALE);
    }

    #[test]
    fn parse_errors_are_typed() {
        let mut acc = StreamAccumulator::new();
        let err = acc.feed("DELETE FROM t").expect_err("non-select rejected");
        assert!(matches!(err, StreamError::Parse(_)));
        assert_eq!(acc.statements_fed(), 0);
    }

    #[test]
    fn streamed_epoch_matches_batch_compression() {
        use parinda_workload::{compress_workload, parse_workload};
        let text = "SELECT ra FROM photoobj WHERE objid = 1;
                    SELECT ra FROM photoobj WHERE objid = 2;
                    SELECT dec FROM photoobj WHERE run = 3;";
        let batch = compress_workload(&parse_workload(text).expect("parses"), &Trace::disabled());
        let mut acc = StreamAccumulator::new();
        feed_all(
            &mut acc,
            &[
                "SELECT ra FROM photoobj WHERE objid = 1",
                "SELECT ra FROM photoobj WHERE objid = 2",
                "SELECT dec FROM photoobj WHERE run = 3",
            ],
        );
        acc.advance_epoch(&Trace::disabled()).expect("epoch");
        let streamed = acc.compressed();
        let batch_fps: Vec<&str> = batch.templates.iter().map(|t| t.fingerprint.as_str()).collect();
        let mut stream_fps: Vec<&str> =
            streamed.templates.iter().map(|t| t.fingerprint.as_str()).collect();
        stream_fps.sort();
        let mut sorted_batch = batch_fps.clone();
        sorted_batch.sort();
        assert_eq!(stream_fps, sorted_batch);
        assert_eq!(streamed.raw_weight, batch.raw_weight);
    }

    #[test]
    fn constraints_reject_contradictions() {
        let mut c = ConstraintStore::new();
        c.pin("idx_t_a").expect("pin");
        let err = c.ban("idx_t_a").expect_err("ban of pinned rejected");
        assert!(matches!(err, StreamError::Constraint(_)));
        c.ban("idx_t_b").expect("ban");
        let err = c.pin("idx_t_b").expect_err("pin of banned rejected");
        assert!(matches!(err, StreamError::Constraint(_)));
        assert!(c.unpin("idx_t_a"));
        c.ban("idx_t_a").expect("ban after unpin");
        assert_eq!(c.pinned().count(), 0);
        assert_eq!(c.banned().collect::<Vec<_>>(), vec!["idx_t_a", "idx_t_b"]);
        assert!(c.pin("   ").is_err());
    }

    #[test]
    fn drift_span_is_recorded() {
        let t = Trace::recording();
        let mut acc = StreamAccumulator::new();
        acc.feed("SELECT a FROM t WHERE b = 1").expect("feeds");
        acc.advance_epoch(&t).expect("epoch");
        let r = t.snapshot();
        assert_eq!(r.spans["drift_check"].count, 1);
    }
}
