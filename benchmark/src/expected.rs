//! Designs pinned for the default seed: a run on that seed must advise
//! exactly what the committed file under `expected/` says.

use crate::common::{Checker, Config};

pub fn compare(cfg: &Config, workload: &str, actual: &str, checker: &mut Checker) {
    let path = cfg.expected.join(format!("{workload}.txt"));
    if cfg.write_expected {
        let written =
            std::fs::create_dir_all(&cfg.expected).and_then(|()| std::fs::write(&path, actual));
        checker.check(written.is_ok(), || {
            format!("cannot write {}", path.display())
        });
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_default();
    checker.check(pinned == actual, || {
        format!(
            "{workload}: advised design differs from {}:\n{actual}",
            path.display()
        )
    });
}
