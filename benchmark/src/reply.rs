//! Reading the console's replies: advised designs, benefit totals.

/// One `CREATE INDEX <name> ON <table> (<cols>);  -- <mb> MB` line.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexLine {
    pub table: String,
    /// Comma-separated, no spaces: the form `whatif index` takes.
    pub columns: String,
    pub mb: f64,
}

pub fn indexes(payload: &str) -> Vec<IndexLine> {
    payload
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("CREATE INDEX ")?;
            let (_, rest) = rest.split_once(" ON ")?;
            let (table, rest) = rest.split_once(" (")?;
            let (cols, rest) = rest.split_once(");")?;
            let mb = rest
                .trim()
                .strip_prefix("--")?
                .trim()
                .strip_suffix("MB")?
                .trim()
                .parse()
                .ok()?;
            Some(IndexLine {
                table: table.to_string(),
                columns: cols.replace(", ", ","),
                mb,
            })
        })
        .collect()
}

/// Whether a non-empty design fits `budget_mb`. Sizes are printed to
/// 0.1 MB, so each index may be 0.05 MB larger than it reads.
pub fn fits(indexes: &[IndexLine], budget_mb: u64) -> bool {
    let mb: f64 = indexes.iter().map(|i| i.mb).sum();
    !indexes.is_empty() && mb <= budget_mb as f64 + 0.05 * indexes.len() as f64
}

/// `PARTITION <name> of <table> (<cols>)` lines, verbatim.
pub fn partitions(payload: &str) -> Vec<String> {
    payload
        .lines()
        .filter(|l| l.starts_with("PARTITION "))
        .map(str::to_string)
        .collect()
}

/// `(before, after)` of the benefit report's `total: a -> b` line.
pub fn totals(payload: &str) -> Option<(f64, f64)> {
    let line = payload.lines().find_map(|l| l.strip_prefix("total: "))?;
    let (before, rest) = line.split_once(" -> ")?;
    let after = rest.split_whitespace().next()?;
    Some((before.trim().parse().ok()?, after.parse().ok()?))
}

/// An advised index design as sorted text, for comparing across
/// repetitions and against the pinned file.
pub fn design_text(indexes: &[IndexLine]) -> String {
    let mut lines: Vec<String> = indexes
        .iter()
        .map(|i| format!("index {}({}) {:.1} MB\n", i.table, i.columns, i.mb))
        .collect();
    lines.sort();
    lines.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_suggestion() {
        let payload = "CREATE INDEX idx_photoobj_run_camcol ON photoobj (run, camcol);  -- 293.0 MB\n\n\
                       #  before after\n---\ntotal: 183713690.86 -> 87657039.35   average benefit: 49.7%   speedup: 2.10x\n";
        assert_eq!(
            indexes(payload),
            vec![IndexLine {
                table: "photoobj".into(),
                columns: "run,camcol".into(),
                mb: 293.0
            }]
        );
        assert_eq!(totals(payload), Some((183713690.86, 87657039.35)));
    }
}
