//! Seeded random query generation — used by the scaling benchmarks (E4
//! sweeps workload size up to 120 queries; E10 expands 10k/100k-statement
//! streams for the compression pipeline) and by stress tests.

use crate::parser::{Workload, WorkloadEntry};
use parinda_sql::{parse_select, Select};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate `n` SDSS-flavoured queries from parameterized templates.
///
/// Templates vary their constants (and thereby their selectivities and
/// best indexes), so larger generated workloads genuinely stress index
/// interaction the way the paper's ILP-vs-greedy claim requires.
pub fn generate_queries(n: usize, seed: u64) -> Vec<Select> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| generate_one(&mut rng)).collect()
}

fn generate_one(rng: &mut StdRng) -> Select {
    let band = ["u", "g", "r", "i", "z"][rng.gen::<u32>() as usize % 5];
    let ty = [3, 6][rng.gen::<u32>() as usize % 2];
    let ra0 = rng.gen::<f64>() * 350.0;
    let ra1 = ra0 + rng.gen::<f64>() * 5.0 + 0.05;
    let mag0 = 14.0 + rng.gen::<f64>() * 10.0;
    let mag1 = mag0 + rng.gen::<f64>() * 1.5 + 0.05;
    let z0 = rng.gen::<f64>() * 0.8;
    let z1 = z0 + 0.05;
    let run = 94 + rng.gen::<u32>() % 7906;
    let objid = rng.gen::<u64>() % 9_000_000;

    let sql = match rng.gen::<u32>() % 8 {
        0 => format!(
            "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN {ra0:.3} AND {ra1:.3}"
        ),
        1 => format!(
            "SELECT objid, modelmag_{band} FROM photoobj \
             WHERE type = {ty} AND modelmag_{band} BETWEEN {mag0:.2} AND {mag1:.2}"
        ),
        2 => format!(
            "SELECT objid, psfmag_{band} FROM photoobj WHERE psfmag_{band} < {mag0:.2}"
        ),
        3 => format!("SELECT ra, dec FROM photoobj WHERE objid = {objid}"),
        4 => format!(
            "SELECT p.objid, s.z FROM photoobj p, specobj s \
             WHERE p.objid = s.bestobjid AND s.z BETWEEN {z0:.3} AND {z1:.3}"
        ),
        5 => format!(
            "SELECT type, COUNT(*) FROM photoobj WHERE run = {run} GROUP BY type"
        ),
        6 => format!(
            "SELECT n.objid, n.distance FROM neighbors n \
             WHERE n.distance < {d:.5} AND n.type = {ty}",
            d = rng.gen::<f64>() * 0.003 + 0.0001
        ),
        _ => format!(
            "SELECT p.objid, p.petrorad_{band} FROM photoobj p, specobj s \
             WHERE p.objid = s.bestobjid AND s.specclass = 2 \
             AND p.petrorad_{band} > {r:.2}",
            r = rng.gen::<f64>() * 20.0
        ),
    };
    parse_select(&sql).expect("generated SQL parses")
}

/// Expand the SDSS templates into a parameterized `n`-statement stream
/// (every statement weighs 1.0) — the E10 input. Statements are
/// literal-varied instances of a bounded template set, so clustering
/// collapses the stream to O(100) templates however large `n` grows.
pub fn generate_sdss_stream(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    Workload {
        entries: (0..n)
            .map(|_| WorkloadEntry { query: generate_sdss_stream_one(&mut rng), weight: 1.0 })
            .collect(),
    }
}

/// One stream statement: two thirds come from the 8 classic E4 template
/// shapes, the rest from 4 extra shapes (IN-lists of varying arity,
/// spectro cuts, field quality scans, photo-z ranges) so the surviving
/// template count exercises more than the E4 set.
fn generate_sdss_stream_one(rng: &mut StdRng) -> Select {
    if rng.gen::<u32>() % 3 < 2 {
        return generate_one(rng);
    }
    let runs: Vec<String> =
        (0..(2 + rng.gen::<u32>() % 5)).map(|_| (94 + rng.gen::<u32>() % 7906).to_string()).collect();
    let z0 = rng.gen::<f64>() * 0.8;
    let q = rng.gen::<u32>() % 3;
    let sql = match rng.gen::<u32>() % 4 {
        0 => format!("SELECT objid, field FROM photoobj WHERE run IN ({})", runs.join(", ")),
        1 => format!(
            "SELECT specobjid, zconf FROM specobj WHERE specclass = {sc} AND zconf > {zc:.3}",
            sc = rng.gen::<u32>() % 7,
            zc = 0.35 + rng.gen::<f64>() * 0.6
        ),
        2 => format!(
            "SELECT fieldid, run FROM field WHERE psfwidth_r < {w:.3} AND quality = {q}",
            w = 0.8 + rng.gen::<f64>() * 1.6
        ),
        _ => format!(
            "SELECT objid, z FROM photoz WHERE z BETWEEN {z0:.3} AND {z1:.3} AND quality = {q}",
            z1 = z0 + 0.05
        ),
    };
    parse_select(&sql).expect("generated SQL parses")
}

/// Retail counterpart of [`generate_sdss_stream`]: parameterized
/// instances of the 8 core retail shapes, for cross-schema compression
/// tests.
pub fn generate_retail_stream(n: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    Workload {
        entries: (0..n)
            .map(|_| WorkloadEntry { query: generate_retail_one(&mut rng), weight: 1.0 })
            .collect(),
    }
}

fn generate_retail_one(rng: &mut StdRng) -> Select {
    let d0 = 8_000 + rng.gen::<u32>() % 2_400;
    let d1 = d0 + 5 + rng.gen::<u32>() % 120;
    let sql = match rng.gen::<u32>() % 8 {
        0 => format!(
            "SELECT orderkey, totalprice FROM orders WHERE orderkey = {k}",
            k = rng.gen::<u64>() % 1_000_000
        ),
        1 => format!("SELECT orderkey FROM orders WHERE orderdate BETWEEN {d0} AND {d1}"),
        2 => format!(
            "SELECT priority, COUNT(*) FROM orders WHERE orderdate BETWEEN {d0} AND {d1} GROUP BY priority"
        ),
        3 => format!(
            "SELECT l.orderkey, l.extendedprice FROM lineitem l WHERE l.shipdate BETWEEN {d0} AND {d1}"
        ),
        4 => format!(
            "SELECT COUNT(*), SUM(extendedprice) FROM lineitem \
             WHERE shipdate BETWEEN {d0} AND {d1} AND discount BETWEEN {lo:.2} AND {hi:.2}",
            lo = (rng.gen::<u32>() % 5) as f64 / 100.0,
            hi = (5 + rng.gen::<u32>() % 6) as f64 / 100.0
        ),
        5 => format!(
            "SELECT o.orderkey, o.totalprice FROM orders o, customer c \
             WHERE o.custkey = c.custkey AND c.segment = {s} AND o.totalprice > {p:.1}",
            s = rng.gen::<u32>() % 5,
            p = 100_000.0 + rng.gen::<f64>() * 300_000.0
        ),
        6 => format!(
            "SELECT l.orderkey, p.name FROM lineitem l, product p \
             WHERE l.prodkey = p.prodkey AND p.category = {c} AND l.quantity > {q}",
            c = rng.gen::<u32>() % 50,
            q = 30 + rng.gen::<u32>() % 20
        ),
        _ => format!(
            "SELECT c.custkey, c.acctbal FROM customer c WHERE c.acctbal > {b:.1}",
            b = rng.gen::<f64>() * 9_000.0
        ),
    };
    parse_select(&sql).expect("generated SQL parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdss::{sdss_catalog, SdssScale};

    #[test]
    fn generates_requested_count() {
        assert_eq!(generate_queries(25, 1).len(), 25);
        assert!(generate_queries(0, 1).is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_queries(10, 99);
        let b = generate_queries(10, 99);
        assert_eq!(a, b);
        let c = generate_queries(10, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_queries_bind() {
        let (c, _) = sdss_catalog(SdssScale::laptop(100));
        for (i, q) in generate_queries(60, 7).iter().enumerate() {
            parinda_optimizer::bind(q, &c).unwrap_or_else(|e| panic!("query {i}: {e}"));
        }
    }

    #[test]
    fn sdss_stream_is_deterministic_and_binds() {
        let a = generate_sdss_stream(200, 42);
        assert_eq!(a.len(), 200);
        assert_eq!(a, generate_sdss_stream(200, 42));
        let (c, _) = sdss_catalog(SdssScale::laptop(100));
        for (i, q) in a.queries().iter().enumerate() {
            parinda_optimizer::bind(q, &c).unwrap_or_else(|e| panic!("stream query {i}: {e}"));
        }
    }

    #[test]
    fn retail_stream_is_deterministic_and_binds() {
        let a = generate_retail_stream(200, 42);
        assert_eq!(a.len(), 200);
        assert_eq!(a, generate_retail_stream(200, 42));
        let (c, _) = crate::retail::retail_catalog(1_000);
        for (i, q) in a.queries().iter().enumerate() {
            parinda_optimizer::bind(q, &c).unwrap_or_else(|e| panic!("stream query {i}: {e}"));
        }
    }

    /// The whole point of the stream generators: statement count grows,
    /// template count stays bounded.
    #[test]
    fn streams_collapse_to_bounded_template_sets() {
        let sdss = crate::compress::compress_workload(
            &generate_sdss_stream(2_000, 1),
            &parinda_trace::Trace::disabled(),
        );
        assert!(sdss.len() <= 128, "sdss stream has {} templates", sdss.len());
        assert!(sdss.len() >= 8, "sdss stream suspiciously uniform: {}", sdss.len());
        let retail = crate::compress::compress_workload(
            &generate_retail_stream(2_000, 1),
            &parinda_trace::Trace::disabled(),
        );
        assert!(retail.len() <= 64, "retail stream has {} templates", retail.len());
        assert!(retail.len() >= 6);
    }
}
