//! The two figure-pipeline workloads.
//!
//! `paper-figures` replays what `tepic-cc bench` does by default over the
//! eight SPEC95 stand-ins: `Engine::prepare_all` + `Engine::reports`, the
//! eight core figures, then the full-scheme decode panel. It is
//! run-heavy (millions of dynamic ops from a few thousand static ops):
//! emulation leads `prepare`, and fetch simulation inside the figure
//! renderers leads the rest.
//!
//! `corpus-10x` is the seeded 80-program synthetic corpus through
//! `Engine::prepare` + `Engine::reports`, summarised by Figures 5 and 10.
//! It is code-heavy: compile, encode and report lead, emulation and
//! fetch simulation are small, and its warm rerun is almost all
//! artifact-cache reads.
//!
//! A *pass* is one run from inputs to all figure text. The cold pass
//! gets a fresh, empty artifact cache; the warm passes rerun with fresh
//! engines against the cache the cold pass filled, and must hit on every
//! lookup and print byte-identical text.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tepic_ccc::bench::engine::{Engine, MATRIX_SCHEMES};
use tepic_ccc::bench::{figures, Prepared};
use tepic_ccc::ccc::schemes::full::FullScheme;
use tepic_ccc::ccc::schemes::Scheme;
use tepic_ccc::ccc::{encoded_to_bytes, CompressionReport};
use tepic_ccc::fetch::{simulate_decoded, FetchConfig};
use tepic_ccc::workgen::{generate_corpus, Flavor, Tier};
use tepic_ccc::workloads::Workload;

use crate::layers::{self, ensure, Counts, LayerReport, Prog};
use crate::spans::Tracer;
use crate::stats::{median, ms, peak_rss_mb, quantile, sorted, HostSpeed, REF_MS};
use crate::{Args, Outcome, JOBS};

/// The core figure set `tepic-cc bench` renders by default.
const CORE_FIGURES: [&str; 8] = [
    "table1", "table2", "fig05", "fig07", "fig10", "fig13", "fig14", "diag",
];

/// Figures checked byte-for-byte against `tests/golden/`.
const GOLDEN: [(&str, &str); 3] = [
    ("fig05", "fig05_compression.txt"),
    ("fig07", "fig07_att_size.txt"),
    ("fig14", "fig14_bus_power.txt"),
];

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Cold passes per run, whatever `--seconds` says.
const MIN_COLD: usize = 3;

/// Which pipeline workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The eight SPEC95 stand-ins through the default `bench` figures.
    Paper,
    /// The seeded 10x synthetic corpus through Figures 5 and 10.
    Corpus,
}

impl Suite {
    /// Warm reruns per cold pass: a corpus warm rerun is ~1% of its cold
    /// pass, so it takes many to measure it as steadily.
    fn warm_per_cold(self) -> usize {
        match self {
            Suite::Paper => 1,
            Suite::Corpus => 10,
        }
    }
}

/// A workload's generated inputs.
struct Inputs {
    list: Vec<&'static Workload>,
    golden: Vec<(&'static str, String)>,
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

fn make_inputs(suite: Suite, seed: u64, tr: &mut Tracer) -> Result<Inputs, String> {
    let list = match suite {
        Suite::Paper => tepic_ccc::workloads::ALL.iter().collect(),
        Suite::Corpus => tr
            .span("workgen.generate", |_| {
                generate_corpus(seed, Tier::TenX, Flavor::Tepic)
            })
            .map_err(|e| e.to_string())?
            .workloads(),
    };
    let mut golden = Vec::new();
    if suite == Suite::Paper {
        for (fig, file) in GOLDEN {
            let text = std::fs::read_to_string(golden_dir().join(file))
                .map_err(|e| format!("golden snapshot {file}: {e}"))?;
            golden.push((fig, text));
        }
    }
    Ok(Inputs { list, golden })
}

/// What one pass produced.
struct Pass {
    text: String,
    figures: Vec<(&'static str, String)>,
    prepared: Vec<Prepared>,
    misses: u64,
    decode_errors: u64,
}

/// One pass: from inputs to all figure text through `engine`. `warm`
/// only renames the engine spans so cold and warm engine time stay apart.
fn pass(
    tr: &mut Tracer,
    suite: Suite,
    engine: &Engine,
    list: &[&'static Workload],
    warm: bool,
) -> Result<Pass, String> {
    let tag = if warm { ".warm" } else { "" };
    let prepared = tr
        .span(&format!("engine.prepare{tag}"), |_| engine.prepare(list))
        .map_err(|e| e.to_string())?;
    let reports = tr.span(&format!("engine.reports{tag}"), |_| {
        engine.reports(&prepared)
    });
    let names: &[&'static str] = match suite {
        Suite::Paper => &CORE_FIGURES,
        Suite::Corpus => &["fig05", "fig10"],
    };
    let mut text = String::new();
    let mut figs = Vec::new();
    for &fig in names {
        let t = tr.span(&format!("figures.render.{fig}"), |_| {
            render(fig, &prepared, &reports)
        });
        text.push_str(&format!(
            "==================== {fig} ====================\n{t}\n"
        ));
        figs.push((fig, t));
    }
    let mut decode_errors = 0;
    if suite == Suite::Paper {
        // The full-scheme decode panel: the real decompressor on the
        // fetch path of every workload.
        text.push_str("==================== decode ====================\n");
        for p in &prepared {
            let out = tr
                .span("ccc_core.encode.panel", |_| {
                    FullScheme::default().compress(&p.program)
                })
                .map_err(|e| format!("{}: full compress: {e}", p.workload.name))?;
            let (_, ds) = tr.span("ifetch.simulate_decoded.panel", |_| {
                simulate_decoded(
                    &p.program,
                    &p.compressed_img,
                    &p.trace,
                    &FetchConfig::compressed(),
                    out.codec.as_ref(),
                )
            });
            decode_errors += ds.decode_errors;
            text.push_str(&format!(
                "{:<10} {:>8} {:>10} {:>12} {:>9} {:>7}\n",
                p.workload.name,
                ds.blocks_decoded,
                ds.ops_decoded,
                ds.stall_bits,
                ds.long_fallbacks,
                ds.decode_errors
            ));
        }
    }
    Ok(Pass {
        text,
        figures: figs,
        prepared,
        misses: engine.snapshot().misses(),
        decode_errors,
    })
}

fn render(fig: &str, prepared: &[Prepared], reports: &[CompressionReport]) -> String {
    match fig {
        "table1" => figures::table1(),
        "table2" => figures::table2(),
        "fig05" => figures::fig05(reports),
        "fig07" => figures::fig07(reports, prepared),
        "fig10" => figures::fig10(reports),
        "fig13" => figures::fig13(prepared),
        "fig14" => figures::fig14(prepared),
        "diag" => figures::diag(prepared),
        other => unreachable!("no figure {other}"),
    }
}

/// Checks a cold pass: golden figures, a clean decode panel.
fn check_cold(p: &Pass, inputs: &Inputs) -> Result<(), String> {
    for (fig, want) in &inputs.golden {
        let got = p.figures.iter().find(|(f, _)| f == fig).map(|(_, t)| t);
        ensure(got == Some(want), || {
            format!("{fig} differs from tests/golden")
        })?;
    }
    ensure(p.decode_errors == 0, || {
        format!("decode panel saw {} decode errors", p.decode_errors)
    })
}

/// Checks a warm pass against its cold pass.
fn check_warm(warm: &Pass, cold_text: &str) -> Result<(), String> {
    ensure(warm.misses == 0, || {
        format!("warm rerun missed the cache {} times", warm.misses)
    })?;
    ensure(warm.text == cold_text, || {
        "warm rerun text differs from the cold pass".to_string()
    })
}

/// Every scheme image of every program must decode back to the program
/// (`SchemeOutput::verify_roundtrip`) and be the image the engine built.
fn check_roundtrips(prepared: &[Prepared], out: &mut Outcome) {
    std::thread::scope(|s| {
        let halves: Vec<_> = prepared
            .chunks(prepared.len().div_ceil(JOBS).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let mut res = Vec::new();
                    for p in chunk {
                        for scheme in MATRIX_SCHEMES {
                            res.push(roundtrip(p, scheme));
                        }
                    }
                    res
                })
            })
            .collect();
        for h in halves {
            for r in h.join().expect("round-trip checker panicked") {
                out.op(r);
            }
        }
    });
}

fn roundtrip(p: &Prepared, scheme: &str) -> Result<(), String> {
    let name = p.workload.name;
    let o = tepic_ccc::bench::engine::scheme_by_name(scheme)
        .expect("matrix schemes are known")
        .compress(&p.program)
        .map_err(|e| format!("{name}/{scheme}: compress: {e}"))?;
    let engine_img = p.image(scheme).expect("matrix scheme");
    ensure(
        o.verify_roundtrip(&p.program)
            && encoded_to_bytes(&o.image) == encoded_to_bytes(engine_img),
        || format!("{name}/{scheme}: image fails its round trip"),
    )
}

/// A fresh cache directory under the run's state directory.
fn fresh_dir(state: &Path, i: usize) -> PathBuf {
    state.join(format!("cache-{i}"))
}

/// Runs one pipeline workload.
pub fn run(suite: Suite, args: &Args, state: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let wl = args.workload_name();
    if args.trace {
        return traced(suite, args, state, wl);
    }

    // Set-up makes the inputs: the corpus is generated; the paper
    // programs need no generation, so their set-up is one warm-up pass
    // (code paged in, allocator grown) ahead of the measured passes.
    // Every timing is CPU-bound, so each is scaled to the reference
    // host speed measured around it (see `HostSpeed`).
    let mut tr = Tracer::new(false, wl);
    let mut host = HostSpeed::new();
    let mut setups = Vec::new();
    let mut inputs = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        let inp = make_inputs(suite, args.seed, &mut tr)?;
        if suite == Suite::Paper {
            let dir = state.join(format!("warm-up-{i}"));
            let engine = Engine::with_cache_dir(JOBS, &dir).map_err(|e| e.to_string())?;
            pass(&mut tr, suite, &engine, &inp.list, false)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        let raw = t.elapsed().as_secs_f64();
        setups.push(raw * host.factor());
        inputs = Some(inp);
    }
    let inputs = inputs.expect("at least one set-up");
    let n = inputs.list.len();

    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut last_prepared = None;
    while cold.len() < MIN_COLD || Instant::now() < deadline {
        let dir = fresh_dir(state, cold.len());
        let engine = Engine::with_cache_dir(JOBS, &dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let c = pass(&mut tr, suite, &engine, &inputs.list, false)?;
        let cold_raw = ms(t.elapsed());
        out.op(check_cold(&c, &inputs));
        let mut warm_raw = Vec::new();
        for _ in 0..suite.warm_per_cold() {
            let engine = Engine::with_cache_dir(JOBS, &dir).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let w = pass(&mut tr, suite, &engine, &inputs.list, true)?;
            warm_raw.push(ms(t.elapsed()));
            out.op(check_warm(&w, &c.text));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let f = host.factor();
        cold.push(cold_raw * f);
        warm.extend(warm_raw.iter().map(|w| w * f));
        last_prepared = Some(c.prepared);
    }
    if suite == Suite::Corpus {
        check_roundtrips(&last_prepared.expect("one pass ran"), &mut out);
    }

    eprintln!(
        "{wl}: at reference speed, cold passes (ms) {cold:.0?}\n{wl}: warm passes (ms) {warm:.0?}\n\
         {wl}: host kernel (ms, reference {REF_MS}) {:.1?}",
        host.samples
    );
    let (cold, warm) = (sorted(cold), sorted(warm));
    out.put("cold_p50_ms", quantile(&cold, 0.5), "ms");
    out.put("cold_p90_ms", quantile(&cold, 0.9), "ms");
    out.put("warm_p50_ms", quantile(&warm, 0.5), "ms");
    out.put("warm_p90_ms", quantile(&warm, 0.9), "ms");
    let cold_s: f64 = cold.iter().sum::<f64>() / 1e3;
    out.put("throughput_per_s", (n * cold.len()) as f64 / cold_s, "1/s");
    out.put("setup_s", median(&setups), "s");
    eprintln!(
        "{wl}: {} cold pass(es), {} warm rerun(s) over {n} programs",
        cold.len(),
        warm.len()
    );
    Ok(out)
}

/// The traced run: a warm-up and an untraced cold pass as the overhead
/// reference, then set-up, a cold pass, a warm rerun and the layer probe,
/// all under one root span.
fn traced(suite: Suite, args: &Args, state: &Path, wl: &'static str) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = make_inputs(suite, args.seed, &mut Tracer::new(false, wl))?;
    // Warm the process first so the reference pass is comparable.
    let mut untraced_ms = 0.0;
    for i in 0..2 {
        let dir = fresh_dir(state, i);
        let engine = Engine::with_cache_dir(JOBS, &dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        pass(
            &mut Tracer::new(false, wl),
            suite,
            &engine,
            &inputs.list,
            false,
        )?;
        untraced_ms = ms(t.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut host = HostSpeed::new();
    let mut tr = Tracer::new(true, wl);
    let mut counts = Counts::default();
    let dir = fresh_dir(state, 2);
    let mut traced_ms = 0.0;
    tr.span("traced", |tr| -> Result<(), String> {
        let inputs = make_inputs(suite, args.seed, tr)?;
        let engine = Engine::with_cache_dir(JOBS, &dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let c = pass(tr, suite, &engine, &inputs.list, false)?;
        traced_ms = ms(t.elapsed());
        out.op(check_cold(&c, &inputs));
        let engine = Engine::with_cache_dir(JOBS, &dir).map_err(|e| e.to_string())?;
        let w = pass(tr, suite, &engine, &inputs.list, true)?;
        out.op(check_warm(&w, &c.text));
        let snap = engine.snapshot();
        counts.cache_lookups += snap.hits() + snap.misses();
        counts.cache_hits += snap.hits();
        let progs: Vec<Prog> = inputs
            .list
            .iter()
            .map(|w| Prog {
                name: w.name.to_string(),
                source: w.source().to_string(),
            })
            .collect();
        layers::probe(tr, &dir, &progs, &[], 0, &mut counts, &mut out)
    })?;
    let _ = std::fs::remove_dir_all(&dir);
    host.factor(); // a second kernel sample for `host.kernel_ms`

    let prepare_ms = tr
        .durations("engine.prepare")
        .first()
        .map_or(0.0, |&v| v as f64 / 1e6);
    let split = LayerReport {
        tr: &tr,
        counts: &counts,
        prepare_ms,
    }
    .emit(&mut out)?;
    layers::emit_no_daemon(&mut out);
    out.put("trace.overhead_ms", traced_ms - untraced_ms, "ms");
    out.put("peak_rss_mb", peak_rss_mb(None), "MB");
    out.put("host.kernel_ms", median(&host.samples), "ms");
    crate::report_split(wl, &split, &tr);
    crate::write_spans(&tr, wl, args.seed);
    Ok(out)
}
