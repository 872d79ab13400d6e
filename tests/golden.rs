//! Golden-snapshot tests over the paper's figures.
//!
//! Every entry of the figure registry (`figures::FIGURES`) is rendered
//! from one uncached prepare (so nothing on disk can mask a regression)
//! and diffed in full against its committed `results/<stem>.txt`; the
//! snapshots under `tests/golden/`, which perfbench reads, each have a
//! test of their own. Any change to the compiler, the codecs, the fetch
//! simulator or the renderers shows up as a line-level diff here before
//! it can silently shift a result.
//!
//! To refresh after an *intentional* change:
//!
//! ```text
//! cargo build --release
//! ./target/release/tepic-cc bench --all --no-cache
//! cp results/fig05_compression.txt results/fig07_att_size.txt \
//!    results/fig14_bus_power.txt tests/golden/
//! ```

use std::path::Path;
use std::sync::OnceLock;
use tepic_ccc::bench::engine::Engine;
use tepic_ccc::bench::figures::{self, FIGURES};
use tepic_ccc::bench::Prepared;
use tepic_ccc::ccc::CompressionReport;

/// One uncached prepare of the suite, shared by every test here.
fn suite() -> &'static (Vec<Prepared>, Vec<CompressionReport>) {
    static SUITE: OnceLock<(Vec<Prepared>, Vec<CompressionReport>)> = OnceLock::new();
    SUITE.get_or_init(|| {
        let engine = Engine::uncached(4);
        let prepared = engine.prepare_all().expect("suite prepares");
        let reports = engine.reports(&prepared);
        (prepared, reports)
    })
}

/// The text of the registry figure named `name`.
fn render(name: &str) -> String {
    let (prepared, reports) = suite();
    figures::figure(name)
        .unwrap_or_else(|| panic!("no figure named {name}"))
        .render(prepared, reports)
}

/// Line-level report of how `actual` differs from `golden`, or `None`
/// when they are equal.
fn drift(golden: &str, actual: &str) -> Option<String> {
    if actual == golden {
        return None;
    }
    let mut report = String::new();
    for (i, (g, a)) in golden.lines().zip(actual.lines()).enumerate() {
        if g != a {
            report.push_str(&format!("line {}:\n  golden: {g}\n  actual: {a}\n", i + 1));
        }
    }
    let (gl, al) = (golden.lines().count(), actual.lines().count());
    if gl != al {
        report.push_str(&format!("line counts differ: golden {gl}, actual {al}\n"));
    }
    Some(report)
}

/// Diffs figure `name` against the committed `tests/golden/` snapshot.
fn assert_matches_golden(name: &str, golden: &str) {
    if let Some(report) = drift(golden, &render(name)) {
        panic!(
            "{name} drifted from its golden snapshot (see tests/golden.rs for the \
             refresh recipe):\n{report}"
        );
    }
}

#[test]
fn fig05_matches_golden() {
    assert_matches_golden("fig05", include_str!("golden/fig05_compression.txt"));
}

#[test]
fn fig07_matches_golden() {
    assert_matches_golden("fig07", include_str!("golden/fig07_att_size.txt"));
}

#[test]
fn fig14_matches_golden() {
    assert_matches_golden("fig14", include_str!("golden/fig14_bus_power.txt"));
}

#[test]
fn every_figure_matches_its_committed_text() {
    let (prepared, reports) = suite();
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    // One thread per figure: the extension experiments dominate and
    // are independent of each other.
    let rendered: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = FIGURES
            .iter()
            .map(|fig| s.spawn(|| fig.render(prepared, reports)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut failures = String::new();
    for (fig, actual) in FIGURES.iter().zip(rendered) {
        let path = results.join(format!("{}.txt", fig.stem));
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Some(report) = drift(&committed, &actual) {
            failures.push_str(&format!("results/{}.txt:\n{report}", fig.stem));
        }
    }
    assert!(
        failures.is_empty(),
        "figures drifted from their committed text (see tests/golden.rs for the \
         refresh recipe):\n{failures}"
    );
}

#[test]
fn figure_registry_is_consistent() {
    for (i, a) in FIGURES.iter().enumerate() {
        for b in &FIGURES[i + 1..] {
            assert_ne!(a.name, b.name, "duplicate figure name");
            assert_ne!(a.stem, b.stem, "duplicate results stem");
        }
        assert_eq!(figures::figure(a.name).map(|f| f.stem), Some(a.stem));
    }
    let core: Vec<&str> = figures::core_figures().map(|f| f.name).collect();
    assert_eq!(
        core,
        ["table1", "table2", "fig05", "fig07", "fig10", "fig13", "fig14", "diag"]
    );
}
