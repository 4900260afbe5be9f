//! Workload compression: cluster equivalent statements into weighted
//! templates before any advisor runs (ROADMAP open item 1, after CoPhy's
//! workload compression and AIM's statement deduplication).
//!
//! Production workloads are overwhelmingly reweighted copies of a few
//! hundred statement *templates* — the same query shape re-issued with
//! different literals. Everything downstream of the workload (INUM memo
//! build, benefit matrix, ILP) is linear or worse in the statement
//! count, so collapsing 100k statements to O(100) templates *before*
//! INUM ever runs is the single biggest scaling lever the advisor has.
//!
//! Clustering is keyed by a normalizing [`fingerprint`]: literals
//! stripped, whitespace and case folded, `IN`-list arity erased. Each
//! cluster keeps its first-seen statement as the representative and the
//! *sum* of member weights, so a weighted advisor run over the templates
//! prices exactly the same objective as a run over the raw stream.
//!
//! Compression is sequential and first-seen ordered — bit-identical
//! output at any thread count, by construction.

use std::collections::BTreeMap;

use parinda_failpoint::should_fail;
use parinda_sql::Select;
use parinda_trace::{Counter, Trace};

use crate::parser::Workload;

/// One cluster of equivalent statements: the first-seen representative,
/// the summed weight of every member, and the normalized fingerprint
/// that keyed the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    /// First-seen member, used for planning/costing the whole cluster.
    pub query: Select,
    /// Sum of member weights (a raw statement weighs 1.0 by default).
    pub weight: f64,
    /// How many raw statements folded into this template.
    pub members: usize,
    /// The normalized text that keyed this cluster.
    pub fingerprint: String,
}

/// A compressed workload: templates in first-seen order plus the raw
/// totals they stand for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressedWorkload {
    /// Surviving templates, in order of first appearance.
    pub templates: Vec<QueryTemplate>,
    /// Raw statement count before clustering.
    pub raw_statements: usize,
    /// Total raw weight before clustering (equals the sum of template
    /// weights — clustering only regroups, never rescales).
    pub raw_weight: f64,
}

impl CompressedWorkload {
    /// Representative statements, parallel to [`Self::weights`].
    pub fn queries(&self) -> Vec<Select> {
        self.templates.iter().map(|t| t.query.clone()).collect()
    }

    /// Per-template summed weights, parallel to [`Self::queries`].
    pub fn weights(&self) -> Vec<f64> {
        self.templates.iter().map(|t| t.weight).collect()
    }

    /// Number of surviving templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Is the compressed workload empty?
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Raw statements that folded into an already-seen template.
    pub fn merged(&self) -> usize {
        self.raw_statements - self.templates.len()
    }

    /// Raw statements per surviving template (1.0 when nothing merged).
    pub fn compression_ratio(&self) -> f64 {
        if self.templates.is_empty() {
            1.0
        } else {
            self.raw_statements as f64 / self.templates.len() as f64
        }
    }
}

/// Normalize one statement's text into its clustering key: case and
/// whitespace folded, string/numeric literals replaced by `?`, and runs
/// of `?` list elements collapsed so `IN (1, 2, 3)` and `IN (4)` key
/// identically. Digits inside identifiers (`modelmag_r`, `p1`) survive.
pub fn fingerprint(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    // was the previously emitted char part of an identifier? (guards
    // identifier-embedded digits from literal stripping)
    let mut prev_ident = false;
    while let Some(c) = chars.next() {
        if c == '\'' {
            // string literal, with '' escaping a quote
            while let Some(c2) = chars.next() {
                if c2 == '\'' {
                    if chars.peek() == Some(&'\'') {
                        chars.next();
                    } else {
                        break;
                    }
                }
            }
            out.push('?');
            prev_ident = false;
        } else if !prev_ident
            && (c.is_ascii_digit()
                || (c == '.' && chars.peek().map_or(false, |c2| c2.is_ascii_digit())))
        {
            // numeric literal: digit/dot run (covers `19.5` and `.5`) ...
            while let Some(&c2) = chars.peek() {
                if c2.is_ascii_digit() || c2 == '.' {
                    chars.next();
                } else {
                    break;
                }
            }
            // ... plus an optional exponent (`1e6`, `1.5e-3`, `2E+10`).
            // Two-char lookahead so a bare trailing `e` (an identifier,
            // as in `1 e`-adjacent aliases) is not swallowed.
            let mut look = chars.clone();
            if matches!(look.next(), Some('e') | Some('E')) {
                let consume_exp = match look.next() {
                    Some('+') | Some('-') => {
                        let signed = look.next().map_or(false, |d| d.is_ascii_digit());
                        if signed {
                            chars.next(); // e/E
                            chars.next(); // sign
                        }
                        signed
                    }
                    Some(d) if d.is_ascii_digit() => {
                        chars.next(); // e/E
                        true
                    }
                    _ => false,
                };
                if consume_exp {
                    while chars.peek().map_or(false, |d| d.is_ascii_digit()) {
                        chars.next();
                    }
                }
            }
            out.push('?');
            prev_ident = false;
        } else if c.is_whitespace() {
            if !out.is_empty() && !out.ends_with(' ') {
                out.push(' ');
            }
            prev_ident = false;
        } else {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            prev_ident = c.is_alphanumeric() || c == '_';
        }
    }
    let mut fp = out.trim_end().to_string();
    // erase list arity: (?, ?, ?) -> (?)
    loop {
        let collapsed = fp.replace("?, ?", "?").replace("?,?", "?");
        if collapsed == fp {
            break;
        }
        fp = collapsed;
    }
    fp
}

/// Cluster `workload` into weighted templates under a `cluster` span,
/// counting [`Counter::TemplatesMerged`].
///
/// The `workload::cluster` failpoint degrades clustering to the identity
/// (every statement keeps its own template) — the advisor still answers,
/// just without the speedup, which is the contract for every degraded
/// path in the pipeline.
pub fn compress_workload(workload: &Workload, trace: &Trace) -> CompressedWorkload {
    let _span = trace.span("cluster");
    let degraded = should_fail("workload::cluster");
    let mut by_fp: BTreeMap<String, usize> = BTreeMap::new();
    let mut templates: Vec<QueryTemplate> = Vec::new();
    let mut raw_weight = 0.0;
    for (i, entry) in workload.entries.iter().enumerate() {
        raw_weight += entry.weight;
        let fp = if degraded {
            // unique per statement: clustering becomes the identity
            format!("degraded::{i}")
        } else {
            fingerprint(&entry.query.to_string())
        };
        match by_fp.get(&fp) {
            Some(&t) => {
                templates[t].weight += entry.weight;
                templates[t].members += 1;
            }
            None => {
                by_fp.insert(fp.clone(), templates.len());
                templates.push(QueryTemplate {
                    query: entry.query.clone(),
                    weight: entry.weight,
                    members: 1,
                    fingerprint: fp,
                });
            }
        }
    }
    let compressed = CompressedWorkload {
        templates,
        raw_statements: workload.len(),
        raw_weight,
    };
    trace.count(Counter::TemplatesMerged, compressed.merged() as u64);
    compressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_workload;

    fn wl(text: &str) -> Workload {
        parse_workload(text).expect("test workload parses")
    }

    #[test]
    fn literals_fold_into_one_template() {
        let w = wl("SELECT ra FROM photoobj WHERE objid = 1;
                    SELECT ra FROM photoobj WHERE objid = 99999;
                    select   RA from PHOTOOBJ where objid=42;");
        let c = compress_workload(&w, &Trace::disabled());
        assert_eq!(c.len(), 1);
        assert_eq!(c.templates[0].members, 3);
        assert_eq!(c.templates[0].weight, 3.0);
        assert_eq!(c.raw_statements, 3);
        assert_eq!(c.merged(), 2);
    }

    #[test]
    fn different_shapes_stay_distinct() {
        let w = wl("SELECT ra FROM photoobj WHERE objid = 1;
                    SELECT ra, dec FROM photoobj WHERE objid = 1;
                    SELECT ra FROM photoobj WHERE run = 1;");
        assert_eq!(compress_workload(&w, &Trace::disabled()).len(), 3);
    }

    #[test]
    fn weights_sum_per_cluster() {
        let w = wl("-- weight: 5\nSELECT a FROM t WHERE b = 1;
                    -- weight: 2.5\nSELECT a FROM t WHERE b = 7;");
        let c = compress_workload(&w, &Trace::disabled());
        assert_eq!(c.len(), 1);
        assert_eq!(c.templates[0].weight, 7.5);
        assert_eq!(c.raw_weight, 7.5);
    }

    #[test]
    fn representative_is_first_seen_and_order_is_stable() {
        let w = wl("SELECT a FROM t WHERE b = 10;
                    SELECT a FROM u WHERE c = 2;
                    SELECT a FROM t WHERE b = 20;");
        let c = compress_workload(&w, &Trace::disabled());
        assert_eq!(c.len(), 2);
        // first template keeps the literal from its first member
        assert!(c.templates[0].query.to_string().contains("10"));
        assert!(c.templates[1].query.to_string().contains("u"));
    }

    #[test]
    fn fingerprint_strips_literals_not_identifier_digits() {
        let fp = fingerprint("SELECT modelmag_r FROM photoobj p1 WHERE modelmag_r < 19.5");
        assert_eq!(fp, "select modelmag_r from photoobj p1 where modelmag_r < ?");
    }

    #[test]
    fn fingerprint_normalizes_leading_dot_decimals() {
        // `.5` and `0.5` are the same literal and must key identically
        let a = fingerprint("SELECT a FROM t WHERE r < .5");
        let b = fingerprint("SELECT a FROM t WHERE r < 0.5");
        assert_eq!(a, b);
        assert_eq!(a, "select a from t where r < ?");
    }

    #[test]
    fn fingerprint_normalizes_exponent_literals() {
        for lit in ["1e6", "1.5e-3", "2E+10", ".25e2", "7"] {
            let fp = fingerprint(&format!("SELECT a FROM t WHERE r < {lit}"));
            assert_eq!(fp, "select a from t where r < ?", "literal {lit}");
        }
    }

    #[test]
    fn fingerprint_leaves_non_exponent_suffixes_alone() {
        // `1e` is a number followed by an identifier, not an exponent
        let fp = fingerprint("SELECT a FROM t1e WHERE r < 1e");
        assert_eq!(fp, "select a from t1e where r < ?e");
        // `1e+` with no digits is arithmetic on an identifier, untouched
        let fp = fingerprint("SELECT a FROM t WHERE r < 1e+ x");
        assert_eq!(fp, "select a from t where r < ?e+ x");
    }

    #[test]
    fn fingerprint_keeps_qualified_column_dots() {
        // alias-qualified columns keep their dot; only literals collapse
        let fp = fingerprint("SELECT t1.ra FROM photoobj t1 WHERE t1.ra < .5");
        assert_eq!(fp, "select t1.ra from photoobj t1 where t1.ra < ?");
    }

    #[test]
    fn fingerprint_erases_in_list_arity() {
        let a = fingerprint("SELECT a FROM t WHERE b IN (1, 2, 3)");
        let b = fingerprint("SELECT a FROM t WHERE b IN (9)");
        assert_eq!(a, b);
        assert_eq!(a, "select a from t where b in (?)");
    }

    #[test]
    fn fingerprint_strips_string_literals_with_escapes() {
        let a = fingerprint("SELECT a FROM t WHERE name LIKE 'gal%'");
        let b = fingerprint("SELECT a FROM t WHERE name LIKE 'it''s; fine%'");
        assert_eq!(a, b);
    }

    #[test]
    fn total_weight_is_preserved() {
        let text: String =
            (0..40).map(|i| format!("SELECT ra FROM photoobj WHERE objid = {i};\n")).collect();
        let c = compress_workload(&wl(&text), &Trace::disabled());
        assert_eq!(c.len(), 1);
        assert_eq!(c.raw_weight, 40.0);
        assert_eq!(c.weights().iter().sum::<f64>(), 40.0);
        assert_eq!(c.compression_ratio(), 40.0);
    }

    #[test]
    fn empty_workload_compresses_to_empty() {
        let c = compress_workload(&Workload::default(), &Trace::disabled());
        assert!(c.is_empty());
        assert_eq!(c.merged(), 0);
        assert_eq!(c.compression_ratio(), 1.0);
    }

    #[test]
    fn merged_counter_is_recorded() {
        let t = Trace::recording();
        let w = wl("SELECT a FROM t WHERE b = 1;
                    SELECT a FROM t WHERE b = 2;
                    SELECT a FROM t WHERE b = 3;");
        let c = compress_workload(&w, &t);
        assert_eq!(c.len(), 1);
        let r = t.snapshot();
        assert_eq!(r.counter(Counter::TemplatesMerged), 2);
        assert_eq!(r.spans["cluster"].count, 1);
    }
}
