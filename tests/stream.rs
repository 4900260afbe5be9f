//! Deterministic stream-simulation harness (continuous tuning): replay
//! a seeded SDSS→retail drift scenario statement-by-statement through
//! the console's streaming verbs, pin the epoch-by-epoch designs as a
//! golden, and prove the incremental INUM path
//! ([`parinda_inum::InumModel::apply_delta`], reached through
//! `Parinda::advise` with `previous`) is bit-identical to a
//! from-scratch rebuild at 1, 2, and 8 threads.
//!
//! Regenerate the golden after an intentional change with:
//!
//! ```text
//! PARINDA_BLESS=1 cargo test --test stream
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use parinda::{
    AdviseRequest, Console, ConsoleReply, IndexSuggestion, Parallelism, Parinda, SelectionMethod,
};
use parinda_bench::{drift_scenario, DRIFT_DDL};

const BUDGET_BYTES: u64 = 64 << 20;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("PARINDA_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("goldens dir");
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden {} missing; regenerate with PARINDA_BLESS=1 cargo test --test stream",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "\noutput drifted from tests/goldens/{name}; if the change is intentional, \
         rebless with PARINDA_BLESS=1 cargo test --test stream"
    );
}

/// Scrub the only nondeterministic text an epoch transcript can carry:
/// the budget report's elapsed wall time (`… exhausted after 0.4 ms …`).
fn scrub_times(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let mut scrubbed: Vec<&str> = Vec::with_capacity(toks.len());
        let mut i = 0;
        while i < toks.len() {
            let bare = toks[i].trim_end_matches([':', ',', ';']);
            let unit = toks.get(i + 1).map(|u| u.trim_end_matches([':', ',', ';']));
            if bare.parse::<f64>().is_ok() && matches!(unit, Some("ms" | "s" | "us" | "ns")) {
                scrubbed.push("<time>");
                i += 2;
            } else {
                scrubbed.push(toks[i]);
                i += 1;
            }
        }
        out.push_str(&scrubbed.join(" "));
        out.push('\n');
    }
    out
}

fn expect_ok(console: &mut Console, line: &str) -> String {
    match console.run_line(line) {
        ConsoleReply::Output(s) => s,
        other => panic!("`{line}` failed: {other:?}"),
    }
}

fn scenario_console(threads: usize) -> Console {
    let mut c = Console::with_session(Parinda::from_ddl(DRIFT_DDL).expect("scenario DDL parses"));
    expect_ok(&mut c, &format!("threads {threads}"));
    c
}

/// The tentpole scenario, end to end at the console: pins and bans are
/// staged up front, three phases (SDSS → transition → retail) each close
/// with an `epoch`, auto-advise fires on every phase boundary (drift is
/// maximal on the first epoch by convention and the template mix moves
/// well past 10% on the later ones), and the last epoch runs under a
/// deterministic one-round budget so the transcript pins a `DEGRADED:`
/// streaming advise too. Every epoch's design is byte-pinned, and every
/// design must honor the standing constraints.
#[test]
fn stream_simulation_epoch_designs_are_pinned() {
    let phases = drift_scenario(42, 48);
    let mut c = scenario_console(1);
    let mut t = String::new();
    for line in
        ["advise auto on", "advise budget 64", "pin orders(o_custkey)", "ban photoobj(dec)"]
    {
        let _ = writeln!(t, "parinda> {line}");
        let _ = writeln!(t, "{}", expect_ok(&mut c, line));
    }
    let last = phases.len() - 1;
    for (i, phase) in phases.iter().enumerate() {
        for sql in &phase.statements {
            expect_ok(&mut c, &format!("feed {sql}"));
        }
        let _ = writeln!(t, "-- phase {}: {} statements fed", phase.name, phase.statements.len());
        if i == last {
            let _ = writeln!(t, "parinda> budget rounds 1");
            let _ = writeln!(t, "{}", expect_ok(&mut c, "budget rounds 1"));
        }
        let _ = writeln!(t, "parinda> epoch");
        let out = expect_ok(&mut c, "epoch");
        let _ = writeln!(t, "{}", out.trim_end());
        let _ = writeln!(t, "parinda> drift");
        let _ = writeln!(t, "{}", expect_ok(&mut c, "drift"));
        assert!(
            out.contains("re-advising"),
            "phase {} crossed no drift threshold:\n{out}",
            phase.name
        );
        assert!(
            out.contains("CREATE INDEX idx_orders_o_custkey ON orders (o_custkey)"),
            "pinned index missing from phase {}'s design:\n{out}",
            phase.name
        );
        assert!(
            !out.contains("CREATE INDEX idx_photoobj_dec ON"),
            "banned index appeared in phase {}'s design:\n{out}",
            phase.name
        );
    }
    let scrubbed = scrub_times(&t);
    assert!(scrubbed.contains("DEGRADED:"), "last epoch must be budget-degraded:\n{scrubbed}");
    check_golden("stream.txt", &scrubbed);
}

/// Fingerprint of a suggestion at bit precision: chosen indexes plus
/// every per-query cost pair.
fn fingerprint(sugg: &IndexSuggestion) -> (Vec<String>, Vec<(u64, u64)>) {
    (
        sugg.indexes
            .iter()
            .map(|i| format!("{}/{}({})", i.table, i.name, i.columns.join(",")))
            .collect(),
        sugg.report
            .per_query
            .iter()
            .map(|q| (q.cost_before.to_bits(), q.cost_after.to_bits()))
            .collect(),
    )
}

/// Tentpole acceptance: for every epoch of the scenario,
/// `advise` with the previous epoch's templates
/// (the `apply_delta` path: only arrived templates are re-bound and
/// re-populated) returns a suggestion bit-identical to the from-scratch
/// rebuild — for both solvers, at 1, 2, and 8 threads, and identically
/// across the thread counts.
#[test]
fn incremental_advise_is_bit_identical_to_full_rebuild() {
    let phases = drift_scenario(7, 32);
    let mut acc = parinda_stream::StreamAccumulator::new();
    let trace = parinda::Trace::disabled();
    let mut epochs: Vec<(Vec<parinda::Select>, Vec<f64>)> = Vec::new();
    for phase in &phases {
        for sql in &phase.statements {
            acc.feed(sql).expect("scenario statements parse");
        }
        acc.advance_epoch(&trace).expect("epoch advances");
        epochs.push((acc.queries(), acc.weights()));
    }

    for method in [SelectionMethod::Ilp, SelectionMethod::Greedy] {
        let mut reference: Option<Vec<(Vec<String>, Vec<(u64, u64)>)>> = None;
        for threads in [1usize, 2, 8] {
            let mut s = Parinda::from_ddl(DRIFT_DDL).expect("scenario DDL parses");
            s.set_parallelism(Parallelism::fixed(threads));
            let mut per_epoch = Vec::new();
            for (i, (q, w)) in epochs.iter().enumerate() {
                let previous = (i > 0)
                    .then(|| (epochs[i - 1].0.as_slice(), epochs[i - 1].1.as_slice()));
                let advise = |prev| {
                    s.advise(&AdviseRequest {
                        weights: Some(w),
                        previous: prev,
                        ..AdviseRequest::new(q, BUDGET_BYTES, method)
                    })
                    .expect("streaming advise")
                };
                let incremental = fingerprint(&advise(previous));
                let rebuilt = fingerprint(&advise(None));
                assert_eq!(
                    incremental, rebuilt,
                    "apply_delta diverged from full rebuild: epoch {} ({method:?}, {threads} threads)",
                    i + 1
                );
                per_epoch.push(incremental);
            }
            match &reference {
                None => reference = Some(per_epoch),
                Some(r) => assert_eq!(
                    r, &per_epoch,
                    "epoch designs differ at {threads} threads ({method:?})"
                ),
            }
        }
    }
}

/// The console-level constraint store rejects a direct pin/ban conflict,
/// and the advisor resolves *aliased* spellings of the same index (a
/// `table(col)` spec vs. its generated `idx_…` display name is the
/// classic case; here two spellings of the same spec) to a typed
/// `error [advisor]:` instead of an inconsistent design or a panic.
#[test]
fn conflicting_pin_and_ban_is_a_typed_advisor_error() {
    let mut c = scenario_console(1);
    // direct conflict: caught by the constraint store at `ban` time
    expect_ok(&mut c, "pin orders(o_custkey)");
    match c.run_line("ban orders(o_custkey)") {
        ConsoleReply::Error(e) => {
            assert_eq!(e.kind(), "advisor", "{e}");
            assert!(e.to_string().contains("pinned"), "{e}");
        }
        other => panic!("conflicting ban accepted: {other:?}"),
    }
    // aliased conflict: different strings, same candidate — only the
    // advisor's resolution step can see it
    expect_ok(&mut c, "ban orders( o_custkey )");
    expect_ok(&mut c, "advise auto on");
    expect_ok(&mut c, "feed SELECT o_id FROM orders WHERE o_custkey = 7");
    match c.run_line("epoch") {
        ConsoleReply::Error(e) => {
            assert_eq!(e.kind(), "advisor", "{e}");
            assert!(e.to_string().contains("both pinned and banned"), "{e}");
        }
        other => panic!("aliased pin+ban conflict not detected: {other:?}"),
    }
    // unknown names are typed too, not panics. The failed advise did
    // not roll back the epoch advance (the epoch committed before the
    // constraint resolution ran), so the next advise needs fresh drift:
    // feed a different template until the mix moves past the threshold.
    expect_ok(&mut c, "unban orders( o_custkey )");
    expect_ok(&mut c, "unpin orders(o_custkey)");
    expect_ok(&mut c, "pin no_such_table(nope)");
    expect_ok(&mut c, "feed SELECT l_id FROM lineitem WHERE l_orderkey = 5");
    expect_ok(&mut c, "feed SELECT l_id FROM lineitem WHERE l_orderkey = 6");
    match c.run_line("epoch") {
        ConsoleReply::Error(e) => {
            assert_eq!(e.kind(), "advisor", "{e}");
            assert!(e.to_string().contains("unknown table in index spec"), "{e}");
        }
        other => panic!("unknown pinned index not rejected: {other:?}"),
    }
}

/// Mid-stream budget changes are honored: the same stream advised under
/// a tighter storage budget can only keep a subset of the design, and
/// the pinned index survives even when it eats most of the budget.
#[test]
fn storage_budget_changes_mid_stream() {
    let phases = drift_scenario(3, 32);
    let mut c = scenario_console(1);
    expect_ok(&mut c, "advise auto on");
    expect_ok(&mut c, "pin lineitem(l_orderkey)");
    for sql in &phases[2].statements {
        expect_ok(&mut c, &format!("feed {sql}"));
    }
    expect_ok(&mut c, "advise budget 512");
    let wide = expect_ok(&mut c, "epoch");
    assert!(wide.contains("CREATE INDEX idx_lineitem_l_orderkey ON"), "{wide}");
    // drift back in with the same mix, tightened to 1 MB: the pin must
    // still be in the design, and nothing wider than the budget can be
    for sql in &phases[1].statements {
        expect_ok(&mut c, &format!("feed {sql}"));
    }
    expect_ok(&mut c, "advise budget 1");
    let tight = expect_ok(&mut c, "epoch");
    assert!(
        tight.contains("CREATE INDEX idx_lineitem_l_orderkey ON"),
        "pin lost under a tight budget:\n{tight}"
    );
    assert!(
        tight.matches("CREATE INDEX").count() <= wide.matches("CREATE INDEX").count(),
        "tighter budget produced a wider design:\nwide:\n{wide}\ntight:\n{tight}"
    );
}

/// Satellite: a 1 ms wall budget cannot fit the paper-scale search, so
/// a drift-triggered advise inside `epoch` comes back as a valid,
/// explicitly `DEGRADED:` best-so-far design instead of blocking the
/// stream.
#[test]
fn one_ms_budget_yields_a_degraded_epoch() {
    let mut c = Console::new();
    expect_ok(&mut c, "load paper");
    expect_ok(&mut c, "threads 1");
    expect_ok(&mut c, "advise auto on");
    for q in parinda_workload::sdss_workload() {
        expect_ok(&mut c, &format!("feed {q}"));
    }
    expect_ok(&mut c, "budget 1");
    let out = expect_ok(&mut c, "epoch");
    assert!(out.contains("re-advising"), "first epoch drift is maximal by convention:\n{out}");
    assert!(out.contains("DEGRADED:"), "1 ms cannot fit the full SDSS search:\n{out}");
}

/// Streamed clustering matches batch compression: the same statements
/// fed one by one or handed to `workload stats` as a file land on the
/// same templates with the same member counts.
#[test]
fn streamed_templates_match_batch_compression() {
    let phases = drift_scenario(11, 40);
    let mut acc = parinda_stream::StreamAccumulator::new();
    let mut entries = Vec::new();
    for sql in &phases[0].statements {
        acc.feed(sql).expect("feeds");
        entries.push(parinda_workload::WorkloadEntry {
            query: parinda::parse_select(sql).expect("parses"),
            weight: 1.0,
        });
    }
    acc.advance_epoch(&parinda::Trace::disabled()).expect("advances");
    let batch = parinda_workload::compress_workload(
        &parinda_workload::Workload { entries },
        &parinda::Trace::disabled(),
    );
    let mut streamed: Vec<(String, u64)> = acc
        .templates()
        .iter()
        .map(|t| (t.fingerprint.clone(), t.members))
        .collect();
    let mut batched: Vec<(String, u64)> =
        batch.templates.iter().map(|t| (t.fingerprint.clone(), t.members as u64)).collect();
    streamed.sort();
    batched.sort();
    assert_eq!(streamed, batched, "streamed and batch clustering disagree");
}
