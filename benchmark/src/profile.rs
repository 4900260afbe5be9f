//! The program's own tracer, read from outside: `profile show` replies
//! on the wire, `Trace::snapshot()` in the library workload. Span totals
//! are keyed by path, counters by name; several sessions and rounds merge
//! by addition.

use std::collections::BTreeMap;

use crate::stats;

#[derive(Default, Clone)]
pub struct Profile {
    /// path -> (spans completed, total ns)
    pub spans: BTreeMap<String, (u64, f64)>,
    pub counters: BTreeMap<String, u64>,
}

/// `123ns`, `45.1us`, `12.3ms` as the profile table prints them.
fn parse_duration_ns(cell: &str) -> Option<f64> {
    let (number, scale) = if let Some(n) = cell.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = cell.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = cell.strip_suffix("ms") {
        (n, 1e6)
    } else {
        return None;
    };
    number.parse::<f64>().ok().map(|v| v * scale)
}

impl Profile {
    /// Parse a `profile show` reply: the phase table, then the counter
    /// block. Lines of neither shape (headers, rules) are skipped.
    pub fn parse(text: &str) -> Profile {
        let mut p = Profile::default();
        let mut in_counters = false;
        for line in text.lines() {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells == ["counters"] {
                in_counters = true;
            } else if in_counters {
                if let [name, value] = cells[..] {
                    if let Ok(v) = value.parse() {
                        p.counters.insert(name.to_string(), v);
                    }
                }
            } else if let [path, count, total, _pct] = cells[..] {
                if let (Ok(c), Some(ns)) = (count.parse(), parse_duration_ns(total)) {
                    p.spans.insert(path.to_string(), (c, ns));
                }
            }
        }
        p
    }

    pub fn from_maps(
        spans: BTreeMap<String, (u64, u64)>,
        counters: BTreeMap<String, u64>,
    ) -> Profile {
        Profile {
            spans: spans
                .into_iter()
                .map(|(k, (c, ns))| (k, (c, ns as f64)))
                .collect(),
            counters,
        }
    }

    pub fn merge(&mut self, other: &Profile) {
        for (path, (c, ns)) in &other.spans {
            let e = self.spans.entry(path.clone()).or_insert((0, 0.0));
            e.0 += c;
            e.1 += ns;
        }
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
    }

    /// Remove what `earlier` — a previous reading of the same tracer, or
    /// of its deterministic replay — had already counted.
    pub fn subtract(&mut self, earlier: &Profile) {
        for (path, (c, ns)) in &earlier.spans {
            if let Some(e) = self.spans.get_mut(path) {
                e.0 = e.0.saturating_sub(*c);
                e.1 = (e.1 - ns).max(0.0);
            }
        }
        for (name, v) in &earlier.counters {
            if let Some(e) = self.counters.get_mut(name) {
                *e = e.saturating_sub(*v);
            }
        }
    }

    pub fn span_ms(&self, path: &str) -> f64 {
        self.spans.get(path).map_or(0.0, |&(_, ns)| ns / 1e6)
    }

    pub fn span_count(&self, path: &str) -> u64 {
        self.spans.get(path).map_or(0, |&(c, _)| c)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Time inside the program that its spans account for, ms: the
    /// top-level spans, minus those that only ever run nested inside
    /// another top-level span (`epoch_advance` encloses the drift check
    /// and, when it re-advises, the INUM and ILP spans).
    pub fn covered_ms(&self) -> f64 {
        let nested_in_epoch = ["drift_check", "inum_build", "inum_delta", "ilp_rounds"];
        let epochs = self.span_count("epoch_advance") > 0;
        self.spans
            .iter()
            .filter(|(path, _)| !path.contains('/'))
            .filter(|(path, _)| !(epochs && nested_in_epoch.contains(&path.as_str())))
            .map(|(_, &(_, ns))| ns / 1e6)
            .sum()
    }

    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(p, (c, ns))| {
                format!(
                    "{}:{{\"count\":{c},\"total_ns\":{}}}",
                    stats::json_str(p),
                    stats::json_num(*ns)
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("{}:{v}", stats::json_str(n)))
            .collect();
        format!(
            "{{\"spans\":{{{}}},\"counters\":{{{}}}}}",
            spans.join(","),
            counters.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_profile_show() {
        let text = "phase                        count    total  % of run\n\
                    -------------------------------------------------\n\
                    ilp_rounds                       1  850.2ms     97.0%\n\
                    \x20 ilp_rounds/bnb                1   12.5us      0.0%\n\
                    parse                            3    900ns      0.1%\n\
                    \ncounters\n--------\nsolver_nodes               17\nmatrix_nnz                 0\n";
        let p = Profile::parse(text);
        assert_eq!(p.span_count("ilp_rounds"), 1);
        assert!((p.span_ms("ilp_rounds") - 850.2).abs() < 1e-9);
        assert!((p.span_ms("ilp_rounds/bnb") - 0.0125).abs() < 1e-9);
        assert!((p.span_ms("parse") - 0.0009).abs() < 1e-12);
        assert_eq!(p.counter("solver_nodes"), 17);
        assert!((p.covered_ms() - 850.2009).abs() < 1e-6);
    }
}
