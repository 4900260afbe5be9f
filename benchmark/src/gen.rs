//! Seeded input generators.
//!
//! Every workload draws its statements from a [`Source`]: a *base* stream
//! that is the same for every seed (which template comes when, and the
//! value each literal is near) and a *jitter* stream made from `--seed`
//! that moves every literal a little. So two seeds give inputs of the
//! same size, shape and difficulty whose texts all differ: the advisors'
//! search (branch-and-bound node counts, which re-advises an epoch
//! triggers) is a chaotic function of the statements' selectivities, and
//! a benchmark whose work changed by a third from seed to seed could not
//! tell a regression from a draw. Script *order* is seeded where the
//! program's work does not depend on it (`wire_interactive`).
//!
//! The generators are the benchmark's own (not the repository's
//! `generate_*` functions): a change to the program under test cannot
//! change the inputs it is measured on.

/// SplitMix64: small, fast, and good enough for picking literals.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for a named purpose, so adding a draw to one
    /// generator never shifts the values another one sees.
    pub fn fork(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(
            seed.wrapping_mul(0xd134_2543_de82_ef95)
                .wrapping_add(purpose),
        );
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The seed of every base stream.
const BASE_SEED: u64 = 0x5041_5249_4e44_4121;
/// How far the seed moves a literal, as a share of the literal's range.
const JITTER: f64 = 0.005;

/// Where statements come from: structure and literal neighbourhoods from
/// the base stream, the literals' exact values from the seed.
pub struct Source {
    base: Rng,
    jitter: Rng,
}

impl Source {
    pub fn new(seed: u64, purpose: u64) -> Source {
        Source {
            base: Rng::fork(BASE_SEED, purpose),
            jitter: Rng::fork(seed, purpose),
        }
    }

    /// A structural choice in `0..n`: the same for every seed.
    pub fn choose(&mut self, n: u64) -> u64 {
        self.base.below(n)
    }

    /// A real literal in `[lo, hi)`, within `JITTER` of its base value.
    pub fn real(&mut self, lo: f64, hi: f64) -> f64 {
        let base = lo + self.base.unit() * (hi - lo);
        // Never below `lo`: a sign would change the statement's template.
        (base + (hi - lo) * JITTER * (2.0 * self.jitter.unit() - 1.0)).max(lo)
    }

    /// An integer literal in `lo..lo + n`, likewise.
    pub fn int(&mut self, lo: u64, n: u64) -> u64 {
        let base = self.base.below(n) as f64;
        let moved = base + n as f64 * JITTER * (2.0 * self.jitter.unit() - 1.0);
        lo + (moved.round().max(0.0) as u64).min(n - 1)
    }
}

const BANDS: [&str; 5] = ["u", "g", "r", "i", "z"];
const QUANTITIES: [&str; 12] = [
    "psfmag",
    "psfmagerr",
    "fibermag",
    "petromag",
    "petromagerr",
    "modelmag",
    "modelmagerr",
    "petrorad",
    "petror50",
    "extinction",
    "devrad",
    "exprad",
];

/// The eight classic SDSS query shapes: point and range lookups on
/// PhotoObj, two joins with SpecObj, a grouped count and a Neighbors scan.
/// Each call is a distinct statement; the shapes share columns, so the
/// index candidates interact.
pub fn classic_statement(src: &mut Source) -> String {
    let band = BANDS[src.choose(5) as usize];
    let ty = [3, 6][src.choose(2) as usize];
    let ra0 = src.real(0.0, 350.0);
    let ra1 = ra0 + src.real(0.05, 5.05);
    let mag0 = src.real(14.0, 24.0);
    let mag1 = mag0 + src.real(0.05, 1.55);
    let z0 = src.real(0.0, 0.8);
    let z1 = z0 + 0.05;
    let run = src.int(94, 7906);
    let objid = src.int(0, 9_000_000);
    let dist = src.real(0.0001, 0.0031);
    let rad = src.real(0.0, 20.0);
    match src.choose(8) {
        0 => format!("SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN {ra0:.3} AND {ra1:.3}"),
        1 => format!(
            "SELECT objid, modelmag_{band} FROM photoobj WHERE type = {ty} AND modelmag_{band} BETWEEN {mag0:.2} AND {mag1:.2}"
        ),
        2 => format!("SELECT objid, psfmag_{band} FROM photoobj WHERE psfmag_{band} < {mag0:.2}"),
        3 => format!("SELECT ra, dec FROM photoobj WHERE objid = {objid}"),
        4 => format!(
            "SELECT p.objid, s.z FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.z BETWEEN {z0:.3} AND {z1:.3}"
        ),
        5 => format!("SELECT type, COUNT(*) FROM photoobj WHERE run = {run} GROUP BY type"),
        6 => format!(
            "SELECT n.objid, n.distance FROM neighbors n WHERE n.distance < {dist:.5} AND n.type = {ty}"
        ),
        _ => format!(
            "SELECT p.objid, p.petrorad_{band} FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.specclass = 2 AND p.petrorad_{band} > {rad:.2}"
        ),
    }
}

/// One statement of the literal-varied SDSS stream: two thirds classic
/// shapes, one third IN-lists, spectro cuts, field scans and photo-z
/// ranges. The stream clusters to 24 templates however long it grows.
pub fn stream_statement(src: &mut Source) -> String {
    if src.choose(3) < 2 {
        return classic_statement(src);
    }
    let z0 = src.real(0.0, 0.8);
    let q = src.choose(3);
    match src.choose(4) {
        0 => {
            let runs: Vec<String> = (0..2 + src.choose(5))
                .map(|_| src.int(94, 7906).to_string())
                .collect();
            format!(
                "SELECT objid, field FROM photoobj WHERE run IN ({})",
                runs.join(", ")
            )
        }
        1 => format!(
            "SELECT specobjid, zconf FROM specobj WHERE specclass = {} AND zconf > {:.3}",
            src.choose(7),
            src.real(0.35, 0.95)
        ),
        2 => format!(
            "SELECT fieldid, run FROM field WHERE psfwidth_r < {:.3} AND quality = {q}",
            src.real(0.8, 2.4)
        ),
        _ => format!(
            "SELECT objid, z FROM photoz WHERE z BETWEEN {z0:.3} AND {:.3} AND quality = {q}",
            z0 + 0.05
        ),
    }
}

/// Size of the drifting stream's template pool.
pub const POOL_TEMPLATES: usize = 120;

/// Statement `template` (`0..POOL_TEMPLATES`) of the drifting stream's
/// pool: one range scan and one typed cut per PhotoObj band quantity. Two
/// statements of one template differ only in literals; two templates
/// never share a fingerprint.
pub fn pool_statement(src: &mut Source, template: usize) -> String {
    let column = format!("{}_{}", QUANTITIES[template % 60 / 5], BANDS[template % 5]);
    let lo = src.real(12.0, 22.0);
    if template < 60 {
        let hi = lo + src.real(0.05, 1.05);
        format!("SELECT objid, {column} FROM photoobj WHERE {column} BETWEEN {lo:.2} AND {hi:.2}")
    } else {
        let ty = [3, 6][src.choose(2) as usize];
        format!("SELECT objid, ra, dec FROM photoobj WHERE type = {ty} AND {column} > {lo:.2}")
    }
}

/// `(table, key columns)` of the what-if indexes a DBA might stage on the
/// SDSS schema.
pub const WHATIF_KEYS: [(&str, &str); 10] = [
    ("photoobj", "ra,dec"),
    ("photoobj", "objid"),
    ("photoobj", "run,camcol"),
    ("photoobj", "htmid"),
    ("photoobj", "type,modelmag_r"),
    ("photoobj", "psfmag_g"),
    ("specobj", "bestobjid"),
    ("specobj", "z"),
    ("neighbors", "objid"),
    ("photoz", "z"),
];

pub const TABLES: [&str; 5] = ["photoobj", "specobj", "neighbors", "field", "photoz"];
