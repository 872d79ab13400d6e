//! The traced layer probe and the per-layer metric report.
//!
//! The probe drives a workload's programs through each layer's public
//! call one at a time, each call in its own span: `lego::compile`,
//! `Emulator::run`, `Scheme::compress` per scheme, the Huffman block
//! decoders, `CompressionReport::build`, `simulate`/`simulate_decoded`,
//! the engine's artifact lookups against a full cache, and an in-process
//! replay of the engine and fetch calls a hot daemon request triggers.
//! Every result is checked on the way (round trips, cache identity,
//! decoded-vs-plain fetch identity), so a layer that gets faster by
//! getting wrong shows up as a failed check.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use tepic_ccc::bench::engine::{scheme_by_name, Engine, MATRIX_SCHEMES};
use tepic_ccc::bench::serve::proto::{to_hex, JobOp, JobRequest, Request};
use tepic_ccc::ccc::schemes::base::encode_base;
use tepic_ccc::ccc::schemes::{decode_blocks, BlockCodec};
use tepic_ccc::ccc::{crc32, encoded_to_bytes, CompressionReport, Failpoints};
use tepic_ccc::fetch::{
    simulate, simulate_decoded, simulate_decoded_injected, DecodeStats, EncodingClass, FetchConfig,
    FetchResult,
};
use tepic_ccc::huffman::DecodeCounters;
use tepic_ccc::isa::{program_to_bytes, Program};
use tepic_ccc::yula::{Emulator, Limits};

use crate::spans::Tracer;
use crate::stats::median;
use crate::{Outcome, JOBS};

/// The decode-fault mix the daemon arms for `faultsim` jobs, so the
/// replay pays the same reference-decoder fallbacks.
const FAULTSIM_SPEC: &str = "decode.lut:0.3:error";

/// Layers a span name may start with; `traced` is the root.
pub const LAYERS: [&str; 12] = [
    "lego", "yula", "ccc_core", "huffman", "ifetch", "engine", "figures", "serve", "proto",
    "workgen", "loadgen", "bench",
];

/// The replay ops, in the order their metrics are reported.
pub const OPS: [JobOp; 4] = [
    JobOp::Encode,
    JobOp::Simulate,
    JobOp::Compile,
    JobOp::Faultsim,
];

/// Counts the probe accumulates alongside its spans.
#[derive(Default)]
pub struct Counts {
    /// Static operations compiled.
    pub static_ops: u64,
    /// Dynamic operations emulated.
    pub dyn_ops: u64,
    /// Encoded image bytes per matrix scheme.
    pub image_bytes: [u64; 5],
    /// Compressed bytes run through each Huffman decoder.
    pub huffman_bytes: u64,
    /// LUT overflows into the bit-serial walk.
    pub long_fallbacks: u64,
    /// Simulated fetch cycles, summed over every probe simulation.
    pub sim_cycles: u64,
    /// Block events simulated by the probe.
    pub sim_blocks: u64,
    /// Engine lookups and hits against the full cache.
    pub cache_lookups: u64,
    /// Hits among `cache_lookups`.
    pub cache_hits: u64,
    /// Replay durations (ns) of the replayed open-loop sequence.
    pub replay_seq_ns: Vec<u64>,
    /// Requests whose canonical form does not survive `Request::parse`.
    pub proto_mismatches: u64,
}

/// One probe program.
pub struct Prog {
    /// Program name (the engine's cache keys include it).
    pub name: String,
    /// Tink source.
    pub source: String,
}

/// Runs the probe over `progs` with `dir` as the artifact cache, then
/// replays `replay` as hot requests against it; the durations of the
/// first `n_seq` replays are kept in `counts.replay_seq_ns`. Each probed
/// program and each replay is one operation of `out`.
pub fn probe(
    tr: &mut Tracer,
    dir: &Path,
    progs: &[Prog],
    replay: &[JobRequest],
    n_seq: usize,
    counts: &mut Counts,
    out: &mut Outcome,
) -> Result<(), String> {
    let opts = tepic_ccc::lego::Options::default();
    let fill = Engine::with_cache_dir(JOBS, dir).map_err(|e| e.to_string())?;
    for p in progs {
        tr.span("bench.fill", |_| fill_cache(&fill, p, &opts))?;
    }
    let engine = Engine::with_cache_dir(JOBS, dir).map_err(|e| e.to_string())?;
    for p in progs {
        let r = probe_program(tr, &engine, p, &opts, counts);
        out.op(r);
    }
    let snap = engine.snapshot();
    counts.cache_lookups += snap.hits() + snap.misses();
    counts.cache_hits += snap.hits();

    let mut replayer = Replayer::default();
    for req in replay {
        tr.span("bench.fill", |_| replayer.run(&engine, req))?;
    }
    for (i, req) in replay.iter().enumerate() {
        let wire = Request::Job(req.clone());
        let parsed = tr.span("proto.codec", |_| {
            Request::parse(wire.canonical().as_bytes()).map(|r| r.canonical())
        });
        // Seeds above 2^53 do not survive the JSON number round trip;
        // counted, not failed, so the defect stays visible per run.
        if parsed.as_deref() != Ok(wire.canonical().as_str()) {
            counts.proto_mismatches += 1;
        }
        let name = format!("serve.replay.{}", req.op.name());
        let replayed = tr.span(&name, |_| replayer.run(&engine, req));
        out.op(replayed.map(drop));
        if i < n_seq {
            let d = tr.durations(&name);
            counts
                .replay_seq_ns
                .push(*d.last().expect("span just closed"));
        }
    }
    Ok(())
}

fn fill_cache(engine: &Engine, p: &Prog, opts: &tepic_ccc::lego::Options) -> Result<(), String> {
    let program = engine
        .program(&p.name, &p.source, opts)
        .map_err(|e| e.to_string())?;
    engine
        .trace(&p.name, &p.source, opts, &program)
        .map_err(|e| e.to_string())?;
    for s in MATRIX_SCHEMES {
        engine
            .image(&p.name, &p.source, opts, s, &program)
            .map_err(|e| e.to_string())?;
    }
    engine.report(&p.name, &p.source, opts, &program);
    Ok(())
}

fn probe_program(
    tr: &mut Tracer,
    engine: &Engine,
    p: &Prog,
    opts: &tepic_ccc::lego::Options,
    counts: &mut Counts,
) -> Result<(), String> {
    let name = p.name.as_str();
    let program = tr
        .span("lego.compile", |_| {
            tepic_ccc::lego::compile(&p.source, opts)
        })
        .map_err(|e| format!("{name}: compile: {e}"))?;
    counts.static_ops += program.num_ops() as u64;
    let run = tr
        .span("yula.emulate", |_| {
            Emulator::new(&program).run(&Limits::default())
        })
        .map_err(|e| format!("{name}: emulate: {e}"))?;
    counts.dyn_ops += run.stats.ops;
    let trace = run.trace;

    let ops_per_block: Vec<usize> = (0..program.num_blocks())
        .map(|b| program.block_ops(b).len())
        .collect();
    let expect: Vec<Vec<u64>> = (0..program.num_blocks())
        .map(|b| program.block_ops(b).iter().map(|o| o.encode()).collect())
        .collect();
    let mut images = Vec::new();
    for (i, scheme) in MATRIX_SCHEMES.iter().enumerate() {
        let s = scheme_by_name(scheme).expect("matrix schemes are known");
        let enc = tr
            .span(&format!("ccc_core.encode.{scheme}"), |_| {
                s.compress(&program)
            })
            .map_err(|e| format!("{name}/{scheme}: compress: {e}"))?;
        counts.image_bytes[i] += enc.image.total_bytes() as u64;
        if *scheme != "tailored" {
            let mut lut_counts = DecodeCounters::default();
            let lut: Vec<_> = tr.span("huffman.decode.lut", |_| {
                (0..program.num_blocks())
                    .map(|b| {
                        enc.codec.decode_block_counted(
                            &enc.image,
                            b,
                            ops_per_block[b],
                            &mut lut_counts,
                        )
                    })
                    .collect()
            });
            let mut batch_counts = DecodeCounters::default();
            let batch = tr.span("huffman.decode.batch", |_| {
                decode_blocks(&*enc.codec, &enc.image, &ops_per_block, &mut batch_counts)
            });
            let ok = |v: &[Result<Vec<u64>, _>]| {
                v.iter()
                    .zip(&expect)
                    .all(|(r, e)| r.as_ref().ok() == Some(e))
            };
            ensure(ok(&lut) && ok(&batch), || {
                format!("{name}/{scheme}: decoded blocks differ from the program")
            })?;
            counts.huffman_bytes += enc.image.total_bytes() as u64;
            counts.long_fallbacks += lut_counts.long_fallbacks;
        }
        images.push(enc);
    }
    let report = tr.span("ccc_core.report", |_| {
        CompressionReport::build(name, &program)
    });
    let base_img = tr.span("ccc_core.encode.base", |_| encode_base(&program));

    // The fetch configurations the figure renderers simulate: the
    // paper-size cache study and the code-size-scaled one.
    let (full, tailored) = (&images[3], &images[4]);
    let code = base_img.total_bytes();
    let configs = [
        ("ideal", &base_img, FetchConfig::ideal()),
        ("base", &base_img, FetchConfig::base()),
        ("compressed", &full.image, FetchConfig::compressed()),
        ("tailored", &tailored.image, FetchConfig::tailored()),
        (
            "scaled_base",
            &base_img,
            FetchConfig::scaled(EncodingClass::Base, code),
        ),
        (
            "scaled_compressed",
            &full.image,
            FetchConfig::scaled(EncodingClass::Compressed, code),
        ),
        (
            "scaled_tailored",
            &tailored.image,
            FetchConfig::scaled(EncodingClass::Tailored, code),
        ),
    ];
    let mut plain_compressed = None;
    for (label, img, cfg) in &configs {
        let r = tr.span(&format!("ifetch.simulate.{label}"), |_| {
            simulate(&program, img, &trace, cfg)
        });
        counts.sim_cycles += r.cycles;
        counts.sim_blocks += trace.len() as u64;
        if *label == "compressed" {
            plain_compressed = Some(r);
        }
    }
    let (decoded, ds) = tr.span("ifetch.simulate_decoded.compressed", |_| {
        simulate_decoded(
            &program,
            &full.image,
            &trace,
            &FetchConfig::compressed(),
            &*full.codec,
        )
    });
    counts.sim_cycles += decoded.cycles;
    counts.sim_blocks += trace.len() as u64;
    ensure(
        Some(&decoded) == plain_compressed.as_ref() && ds.decode_errors == 0,
        || format!("{name}: decoded fetch differs from plain fetch"),
    )?;

    // Engine lookups against the full cache must return exactly the
    // artifacts just built directly.
    let cached = tr.span("engine.cache_read", |_| -> Result<_, String> {
        let prog = engine
            .program(name, &p.source, opts)
            .map_err(|e| e.to_string())?;
        let tr_c = engine
            .trace(name, &p.source, opts, &prog)
            .map_err(|e| e.to_string())?;
        let mut imgs = Vec::new();
        for s in MATRIX_SCHEMES {
            imgs.push(
                engine
                    .image(name, &p.source, opts, s, &prog)
                    .map_err(|e| e.to_string())?,
            );
        }
        let rep = engine.report(name, &p.source, opts, &prog);
        Ok((prog, tr_c, imgs, rep))
    });
    let (prog, tr_c, imgs, rep) = cached.map_err(|e| format!("{name}: cache read: {e}"))?;
    ensure(
        program_to_bytes(&prog) == program_to_bytes(&program)
            && tr_c == trace
            && imgs
                .iter()
                .zip(&images)
                .all(|(c, d)| encoded_to_bytes(c) == encoded_to_bytes(&d.image))
            && rep == report,
        || format!("{name}: cached artifacts differ from direct builds"),
    )
}

/// `Ok` when `cond` holds, else the message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Replays the engine and fetch calls the daemon makes for one job, as
/// `tepic-ccd` does on a warm cache: decode codecs are memoized per
/// (scheme, program) exactly like the daemon's codec cache.
#[derive(Default)]
pub struct Replayer {
    codecs: HashMap<(String, String), Arc<dyn BlockCodec>>,
}

impl Replayer {
    /// Runs `req` and renders the fields its response carries.
    pub fn run(&mut self, engine: &Engine, req: &JobRequest) -> Result<String, String> {
        let opts = tepic_ccc::lego::Options::default();
        let program = engine
            .program(&req.name, &req.source, &opts)
            .map_err(|e| e.to_string())?;
        match req.op {
            JobOp::Compile => {
                let code = program.code_bytes();
                Ok(format!(
                    "{} {} {} {}",
                    program.num_blocks(),
                    program.num_ops(),
                    code.len(),
                    crc32(&code)
                ))
            }
            JobOp::Encode => {
                let image = engine
                    .image(&req.name, &req.source, &opts, &req.scheme, &program)
                    .map_err(|e| e.to_string())?;
                Ok(to_hex(&encoded_to_bytes(&image)))
            }
            JobOp::Simulate | JobOp::Faultsim => {
                let trace = engine
                    .trace(&req.name, &req.source, &opts, &program)
                    .map_err(|e| e.to_string())?;
                let image = engine
                    .image(&req.name, &req.source, &opts, &req.scheme, &program)
                    .map_err(|e| e.to_string())?;
                let (r, ds) = if req.scheme == "tailored" {
                    let r = simulate(&program, &image, &trace, &FetchConfig::tailored());
                    (r, DecodeStats::default())
                } else {
                    let codec = self.codec(&req.name, &req.scheme, &program)?;
                    let cfg = FetchConfig::compressed();
                    if req.op == JobOp::Faultsim {
                        let fp = Failpoints::from_spec(FAULTSIM_SPEC, req.seed)
                            .map_err(|e| e.to_string())?;
                        simulate_decoded_injected(&program, &image, &trace, &cfg, &*codec, &fp)
                    } else {
                        simulate_decoded(&program, &image, &trace, &cfg, &*codec)
                    }
                };
                Ok(sim_fields(&r, &ds))
            }
        }
    }

    fn codec(
        &mut self,
        name: &str,
        scheme: &str,
        program: &Program,
    ) -> Result<Arc<dyn BlockCodec>, String> {
        let key = (scheme.to_string(), name.to_string());
        if let Some(c) = self.codecs.get(&key) {
            return Ok(Arc::clone(c));
        }
        let out = scheme_by_name(scheme)
            .ok_or_else(|| format!("unknown scheme {scheme}"))?
            .compress(program)
            .map_err(|e| e.to_string())?;
        let codec: Arc<dyn BlockCodec> = Arc::from(out.codec);
        self.codecs.insert(key, Arc::clone(&codec));
        Ok(codec)
    }
}

fn sim_fields(r: &FetchResult, ds: &DecodeStats) -> String {
    format!(
        "{} {} {} {}",
        r.cycles, r.ops, r.bus_bit_flips, ds.blocks_decoded
    )
}

/// Per-layer numbers from the traced run: self times per span name
/// folded into the metrics the benchmark declares, plus the counts.
pub struct LayerReport<'a> {
    /// The traced run's spans.
    pub tr: &'a Tracer,
    /// Probe counts.
    pub counts: &'a Counts,
    /// Cold `prepare` wall (ms), 0 when the workload never prepares.
    pub prepare_ms: f64,
}

impl LayerReport<'_> {
    /// Emits every per-layer metric into `out`; returns the self time
    /// (ms) per layer for the human-readable split.
    ///
    /// # Errors
    ///
    /// Spans that do not nest, or a layer split that does not add up
    /// to the traced wall time.
    pub fn emit(&self, out: &mut Outcome) -> Result<Vec<(&'static str, f64)>, String> {
        let by_name = self.tr.self_by_name()?;
        let ns = |pred: &dyn Fn(&str) -> bool| -> u64 {
            by_name
                .iter()
                .filter(|(n, _)| pred(n))
                .map(|(_, v)| *v)
                .sum()
        };
        let ms = |v: u64| v as f64 / 1e6;
        let exact = |n: &str| ms(ns(&|m| m == n));
        let prefixed = |p: &str| ms(ns(&|m| m.starts_with(p)));
        let per_s = |count: u64, t_ms: f64| {
            if t_ms > 0.0 {
                count as f64 / (t_ms / 1e3)
            } else {
                0.0
            }
        };
        let c = self.counts;

        let lego = prefixed("lego.");
        let yula = prefixed("yula.");
        out.put("lego.compile_ms", lego, "ms");
        out.put("lego.static_ops", c.static_ops as f64, "count");
        out.put("yula.emulate_ms", yula, "ms");
        out.put("yula.dyn_ops", c.dyn_ops as f64, "count");
        out.put("yula.ops_per_s", per_s(c.dyn_ops, yula), "1/s");
        let mut encode = 0.0;
        for (i, s) in MATRIX_SCHEMES.iter().enumerate() {
            let t = exact(&format!("ccc_core.encode.{s}"));
            encode += t;
            out.put(&format!("ccc_core.encode_ms.{s}"), t, "ms");
            out.put(
                &format!("ccc_core.image_bytes.{s}"),
                c.image_bytes[i] as f64,
                "bytes",
            );
        }
        out.put("ccc_core.report_ms", exact("ccc_core.report"), "ms");

        let mb_s = |t_ms: f64| per_s(c.huffman_bytes, t_ms) / 1e6;
        out.put(
            "huffman.decode_mb_s.lut",
            mb_s(exact("huffman.decode.lut")),
            "MB/s",
        );
        out.put(
            "huffman.decode_mb_s.batch",
            mb_s(exact("huffman.decode.batch")),
            "MB/s",
        );
        out.put("huffman.long_fallbacks", c.long_fallbacks as f64, "count");

        let probe_sim = prefixed("ifetch.simulate.") + exact("ifetch.simulate_decoded.compressed");
        out.put("ifetch.simulate_ms", prefixed("ifetch."), "ms");
        out.put("ifetch.blocks_per_s", per_s(c.sim_blocks, probe_sim), "1/s");
        out.put(
            "ifetch.decode_overhead_ms",
            exact("ifetch.simulate_decoded.compressed") - exact("ifetch.simulate.compressed"),
            "ms",
        );
        out.put("ifetch.sim_cycles", c.sim_cycles as f64, "cycles");

        out.put("engine.prepare_ms", self.prepare_ms, "ms");
        let util = if self.prepare_ms > 0.0 {
            (lego + yula + encode) / (self.prepare_ms * JOBS as f64)
        } else {
            0.0
        };
        out.put("engine.pool_utilization", util, "ratio");
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.put(
            "engine.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_lookups),
            "ratio",
        );
        out.put("engine.cache_lookups", c.cache_lookups as f64, "count");
        out.put("engine.cache_read_ms", exact("engine.cache_read"), "ms");

        out.put("figures.render_ms", prefixed("figures."), "ms");
        for f in ["fig07", "fig13", "fig14"] {
            out.put(
                &format!("figures.render_ms.{f}"),
                exact(&format!("figures.render.{f}")),
                "ms",
            );
        }

        for op in OPS {
            let d: Vec<f64> = self
                .tr
                .durations(&format!("serve.replay.{}", op.name()))
                .iter()
                .map(|&v| v as f64 / 1e6)
                .collect();
            let v = if d.is_empty() { 0.0 } else { median(&d) };
            out.put(&format!("serve.replay_ms.{}", op.name()), v, "ms");
        }
        let codec: Vec<f64> = self
            .tr
            .durations("proto.codec")
            .iter()
            .map(|&v| v as f64 / 1e3)
            .collect();
        let codec_us = if codec.is_empty() {
            0.0
        } else {
            codec.iter().sum::<f64>() / codec.len() as f64
        };
        out.put("proto.codec_us", codec_us, "us");
        out.put(
            "proto.roundtrip_mismatches",
            c.proto_mismatches as f64,
            "count",
        );
        out.put("workgen.generate_ms", prefixed("workgen."), "ms");

        // The split: every span's self time lands in exactly one layer,
        // the root's own time is unattributed, and together they must
        // equal the traced wall time to the nanosecond.
        let mut split = Vec::new();
        let mut layer_sum = 0u64;
        for layer in LAYERS {
            let t = ns(&|m| m.split('.').next() == Some(layer));
            layer_sum += t;
            out.put(&format!("self_ms.{layer}"), ms(t), "ms");
            split.push((layer, ms(t)));
        }
        let unattributed = exact("traced");
        let wall = self.tr.wall_ns();
        if layer_sum + ns(&|m| m == "traced") != wall {
            return Err(format!(
                "layer self times ({layer_sum} ns) + unattributed do not sum to the traced wall ({wall} ns)"
            ));
        }
        out.put("unattributed_ms", unattributed, "ms");
        out.put("traced_wall_ms", ms(wall), "ms");
        Ok(split)
    }
}

/// The serve-only per-layer metrics a workload without a daemon reports
/// as zero: it never crosses those layers.
pub fn emit_no_daemon(out: &mut Outcome) {
    for (name, unit) in SERVE_ONLY {
        out.put(name, 0.0, unit);
    }
}

/// Per-layer metrics that only a live daemon produces.
pub const SERVE_ONLY: [(&str, &str); 19] = [
    ("serve.unexplained_ms", "ms"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.job_requests", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_lookups", "count"),
    ("serve.codec_memo_hit_ratio", "ratio"),
    ("serve.codec_lookups", "count"),
    ("serve.jobs_executed", "count"),
    ("serve.busy_rejections", "count"),
    ("proto.response_bytes.encode", "bytes"),
    ("proto.response_bytes.simulate", "bytes"),
    ("proto.response_bytes.compile", "bytes"),
    ("proto.response_bytes.faultsim", "bytes"),
    ("loadgen.late_p90_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.busy", "count"),
    ("loadgen.errors", "count"),
    ("loadgen.mismatched", "count"),
];
