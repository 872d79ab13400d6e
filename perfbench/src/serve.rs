//! The `serve-mixed` workload: open-loop traffic to a fresh daemon.
//!
//! Each run starts its own daemon (`perfbench --daemon`, the server
//! `tepic-ccd` runs) on an empty cache directory, generates a seeded
//! request mix from `ccc_workgen::request_mix` — a hot pool of 8
//! (program, op, scheme) combinations plus unique cold programs, ops
//! encode:simulate:compile:faultsim at 5:3:1:1, hot share 0.5 — and
//! warms the hot combinations untimed.
//!
//! * **Open loop.** For `--seconds`, requests fall due at a fixed
//!   10 req/s (so 20 s give ~100 hot and ~100 cold samples), alternating
//!   over two connections; each goes out when due, or when its
//!   connection frees if that is later (the protocol answers in order).
//!   Latency runs from the due time, so a stall also charges the
//!   requests queued behind it; lateness (send − due) is reported too.
//! * **Saturation.** A fixed batch of fresh requests, both connections
//!   always holding their next one: completions per second.
//!
//! Every response is checked afterwards against in-process
//! `lego::compile` + `Scheme::compress` (encode, compile) and
//! `simulate`/`simulate_decoded` (simulate, faultsim); hot responses
//! must also be byte-identical to their warm-up. A busy, failed or
//! mismatched request counts as infinitely late.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use tepic_ccc::bench::engine::{scheme_by_name, Engine};
use tepic_ccc::bench::serve::proto::{
    from_hex, read_frame, write_frame, JobOp, JobRequest, Request,
};
use tepic_ccc::bench::serve::{ServeConfig, ServerHandle};
use tepic_ccc::ccc::{crc32, encoded_to_bytes};
use tepic_ccc::fetch::{simulate, simulate_decoded, DecodeStats, FetchConfig, FetchResult};
use tepic_ccc::telemetry::{parse_json, JsonValue};
use tepic_ccc::workgen::{request_mix, Flavor, MixParams, ServeRequest};
use tepic_ccc::yula::{Emulator, Limits};

use crate::layers::{self, ensure, Counts, LayerReport, Prog, OPS};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, quantile, sorted, HostSpeed};
use crate::{Args, Outcome, JOBS};

/// Offered rate of the open-loop phase (about half of the seed's
/// two-connection saturation rate).
const RATE_PER_S: f64 = 10.0;
/// Requests in the saturation batch.
const SAT_REQUESTS: usize = 80;
/// Client connections.
const CONNS: usize = 2;
/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

/// `perfbench --daemon <cache-dir>`: serves until a `shutdown` request
/// drains it, printing the bound address on stdout first.
pub fn daemon_main(argv: &[String]) -> ExitCode {
    let [dir] = argv else {
        eprintln!("perfbench --daemon: wants exactly one cache directory");
        return ExitCode::from(2);
    };
    let engine = match Engine::with_cache_dir(JOBS, dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench --daemon: cache {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServeConfig {
        jobs: JOBS,
        ..ServeConfig::default()
    };
    let handle = match ServerHandle::start(engine, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench --daemon: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", handle.local_addr());
    handle.join();
    ExitCode::SUCCESS
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut d = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("daemon stdout: {e}"))?;
        d.addr = line
            .trim()
            .parse()
            .map_err(|_| format!("daemon printed {line:?}, not an address"))?;
        Ok(d)
    }

    /// Drains the daemon and waits for it to exit.
    fn shutdown(&mut self) -> Result<(), String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        exchange(&mut s, &Request::Shutdown).map_err(|e| format!("shutdown: {e}"))?;
        drop(s);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return ensure(status.success(), || format!("daemon exited with {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request frame out, one response frame back.
fn exchange(stream: &mut TcpStream, req: &Request) -> std::io::Result<Vec<u8>> {
    write_frame(stream, req.canonical().as_bytes())?;
    read_frame(stream)
        .map_err(|e| std::io::Error::other(e.to_string()))?
        .ok_or_else(|| std::io::Error::other("daemon closed mid-exchange"))
}

fn job(r: &ServeRequest) -> JobRequest {
    JobRequest {
        op: JobOp::by_name(r.op).expect("mix ops are valid"),
        name: r.name.clone(),
        scheme: r.scheme.to_string(),
        seed: r.seed,
        source: r.source.clone(),
    }
}

/// How one scheduled request ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum End {
    Ok,
    Busy,
    Error,
    Mismatched,
}

/// One scheduled request's record.
struct Rec {
    idx: usize,
    op: &'static str,
    end: End,
    /// Due → response, ns (`None` when no response arrived).
    latency_ns: Option<u64>,
    /// Due → send, ns.
    late_ns: u64,
    resp: Vec<u8>,
}

fn classify(resp: &[u8]) -> End {
    match parse_json(&String::from_utf8_lossy(resp)) {
        Ok(v) if matches!(v.get("ok"), Some(JsonValue::Bool(true))) => End::Ok,
        Ok(v) if v.get("kind").and_then(JsonValue::as_str) == Some("busy") => End::Busy,
        _ => End::Error,
    }
}

/// Sends `reqs` (index into `mix`, due offset) over `CONNS` connections;
/// request `k` of the list goes on connection `k % CONNS`. With `due`
/// `None` each connection sends back to back (closed loop).
fn drive(
    addr: SocketAddr,
    mix: &[ServeRequest],
    reqs: &[usize],
    interval: Option<Duration>,
) -> (Vec<Rec>, Instant) {
    let t0 = Instant::now() + Duration::from_millis(20);
    let recs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mine: Vec<(usize, usize)> = reqs
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| k % CONNS == c)
                        .map(|(k, &i)| (k, i))
                        .collect();
                    let mut recs = Vec::with_capacity(mine.len());
                    let mut stream = TcpStream::connect(addr).ok();
                    for (k, i) in mine {
                        let due = match interval {
                            Some(iv) => t0 + iv * k as u32,
                            None => t0.max(Instant::now()),
                        };
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let late_ns = (sent - due).as_nanos() as u64;
                        // An I/O error fails this request and every one
                        // still scheduled on the connection.
                        let res = match stream.as_mut() {
                            Some(st) => exchange(st, &Request::Job(job(&mix[i]))),
                            None => Err(std::io::Error::other("no connection")),
                        };
                        match res {
                            Ok(resp) => recs.push(Rec {
                                idx: i,
                                op: mix[i].op,
                                end: classify(&resp),
                                latency_ns: Some((Instant::now() - due).as_nanos() as u64),
                                late_ns,
                                resp,
                            }),
                            Err(_) => {
                                stream = None;
                                recs.push(Rec {
                                    idx: i,
                                    op: mix[i].op,
                                    end: End::Error,
                                    latency_ns: None,
                                    late_ns,
                                    resp: Vec::new(),
                                });
                            }
                        }
                    }
                    recs
                })
            })
            .collect();
        let mut all: Vec<Rec> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        all.sort_by_key(|r| r.idx);
        all
    });
    (recs, t0)
}

/// What a correct daemon answers for one (program, op, scheme).
enum Expected {
    Compile([u64; 4]),
    Encode(Vec<u8>),
    Sim(FetchResult, DecodeStats),
}

fn expected(r: &ServeRequest) -> Result<Expected, String> {
    let program = tepic_ccc::lego::compile(&r.source, &tepic_ccc::lego::Options::default())
        .map_err(|e| format!("{}: compile: {e}", r.name))?;
    if r.op == "compile" {
        let code = program.code_bytes();
        return Ok(Expected::Compile([
            program.num_blocks() as u64,
            program.num_ops() as u64,
            code.len() as u64,
            u64::from(crc32(&code)),
        ]));
    }
    let out = scheme_by_name(r.scheme)
        .ok_or_else(|| format!("unknown scheme {}", r.scheme))?
        .compress(&program)
        .map_err(|e| format!("{}: compress: {e}", r.name))?;
    if r.op == "encode" {
        return Ok(Expected::Encode(encoded_to_bytes(&out.image)));
    }
    let trace = Emulator::new(&program)
        .run(&Limits::default())
        .map_err(|e| format!("{}: emulate: {e}", r.name))?
        .trace;
    Ok(if r.scheme == "tailored" {
        let res = simulate(&program, &out.image, &trace, &FetchConfig::tailored());
        Expected::Sim(res, DecodeStats::default())
    } else {
        let (res, ds) = simulate_decoded(
            &program,
            &out.image,
            &trace,
            &FetchConfig::compressed(),
            out.codec.as_ref(),
        );
        Expected::Sim(res, ds)
    })
}

fn num(v: &JsonValue, k: &str) -> Option<u64> {
    v.get(k).and_then(JsonValue::as_f64).map(|f| f as u64)
}

/// Checks one ok response against the in-process result.
fn verify(r: &ServeRequest, resp: &[u8], want: &Expected) -> Result<(), String> {
    let v = parse_json(&String::from_utf8_lossy(resp)).map_err(|e| e.to_string())?;
    let fields = |ks: &[&str]| ks.iter().map(|k| num(&v, k)).collect::<Vec<_>>();
    let ok = match want {
        Expected::Compile(w) => {
            fields(&["num_blocks", "num_ops", "code_bytes", "code_crc"])
                == w.iter().map(|&x| Some(x)).collect::<Vec<_>>()
        }
        Expected::Encode(bytes) => {
            v.get("image_hex")
                .and_then(JsonValue::as_str)
                .and_then(from_hex)
                .as_ref()
                == Some(bytes)
        }
        Expected::Sim(f, d) => {
            let fetch = [
                f.cycles,
                f.ops,
                f.pred_correct,
                f.pred_wrong,
                f.cache_hits,
                f.cache_misses,
                f.bus_beats,
                f.bus_bit_flips,
                d.blocks_decoded,
                d.ops_decoded,
            ];
            let got = fields(&[
                "cycles",
                "ops",
                "pred_correct",
                "pred_wrong",
                "cache_hits",
                "cache_misses",
                "bus_beats",
                "bus_bit_flips",
                "blocks_decoded",
                "ops_decoded",
            ]);
            let fetch_ok = got == fetch.iter().map(|&x| Some(x)).collect::<Vec<_>>();
            // A faultsim's injected LUT faults are healed by the reference
            // decoder: same fetch counters, no decode errors; the effort
            // counters legitimately differ from the clean run.
            let effort = [
                "stall_bits",
                "decode_errors",
                "long_fallbacks",
                "reference_fallbacks",
            ];
            let clean = [
                d.stall_bits,
                d.decode_errors,
                d.long_fallbacks,
                d.reference_fallbacks,
            ];
            fetch_ok
                && if r.op == "faultsim" {
                    num(&v, "decode_errors") == Some(0)
                } else {
                    fields(&effort) == clean.iter().map(|&x| Some(x)).collect::<Vec<_>>()
                }
        }
    };
    ensure(ok, || {
        format!(
            "{} {} {}: response differs from in-process result",
            r.op, r.name, r.scheme
        )
    })
}

/// Verifies every ok record (in two threads), turning wrong answers
/// into `Mismatched`.
fn verify_all(
    mix: &[ServeRequest],
    recs: &mut [Rec],
    warm: &HashMap<String, Vec<u8>>,
    out: &mut Outcome,
) {
    let mut keys: Vec<usize> = Vec::new();
    let mut seen = HashMap::new();
    for r in recs.iter().filter(|r| r.end == End::Ok) {
        let m = &mix[r.idx];
        seen.entry((m.name.as_str(), m.op, m.scheme))
            .or_insert_with(|| {
                keys.push(r.idx);
                r.idx
            });
    }
    let results: HashMap<usize, Result<Expected, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(keys.len().div_ceil(JOBS).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&i| (i, expected(&mix[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier panicked"))
            .collect()
    });
    for r in recs.iter_mut().filter(|r| r.end == End::Ok) {
        let m = &mix[r.idx];
        let key = seen[&(m.name.as_str(), m.op, m.scheme)];
        let check = results[&key]
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|want| verify(m, &r.resp, want))
            .and_then(|()| match warm.get(&m.name) {
                Some(w) if m.hot => ensure(*w == r.resp, || {
                    format!("{}: hot response differs from its warm-up", m.name)
                }),
                _ => Ok(()),
            });
        if let Err(e) = check {
            r.end = End::Mismatched;
            out.problem(e);
        }
    }
}

/// A run's generated inputs and live daemon.
struct Setup {
    mix: Vec<ServeRequest>,
    n_open: usize,
    daemon: Daemon,
    warm: HashMap<String, Vec<u8>>,
}

fn set_up(args: &Args, dir: &Path, tr: &mut Tracer) -> Result<Setup, String> {
    let n_open = (RATE_PER_S * args.seconds).round().max(1.0) as usize;
    let params = MixParams {
        hot_fraction: 0.5,
        hot_pool: 8,
        flavor: Flavor::Tepic,
    };
    let mix = tr.span("workgen.generate", |_| {
        request_mix(args.seed, n_open + SAT_REQUESTS, &params)
    });
    let _ = std::fs::remove_dir_all(dir);
    let daemon = tr.span("serve.start", |_| Daemon::start(dir))?;
    let mut warm = HashMap::new();
    tr.span("serve.warmup", |_| -> Result<(), String> {
        let mut s = TcpStream::connect(daemon.addr).map_err(|e| e.to_string())?;
        for r in mix.iter().filter(|r| r.hot) {
            if warm.contains_key(&r.name) {
                continue;
            }
            let resp =
                exchange(&mut s, &Request::Job(job(r))).map_err(|e| format!("warm-up: {e}"))?;
            ensure(classify(&resp) == End::Ok, || {
                format!("warm-up of {} failed", r.name)
            })?;
            warm.insert(r.name.clone(), resp);
        }
        Ok(())
    })?;
    Ok(Setup {
        mix,
        n_open,
        daemon,
        warm,
    })
}

/// The daemon's `metrics` op, parsed.
fn daemon_metrics(addr: SocketAddr) -> Result<JsonValue, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let resp = exchange(&mut s, &Request::Metrics).map_err(|e| e.to_string())?;
    let v = parse_json(&String::from_utf8_lossy(&resp)).map_err(|e| e.to_string())?;
    v.get("metrics")
        .cloned()
        .ok_or_else(|| "metrics response lacks metrics".to_string())
}

/// Latencies (ms) of the records, failures as `+inf`, sorted.
fn latencies(recs: &[&Rec]) -> Vec<f64> {
    sorted(
        recs.iter()
            .map(|r| match (r.end, r.latency_ns) {
                (End::Ok, Some(ns)) => ns as f64 / 1e6,
                _ => f64::INFINITY,
            })
            .collect(),
    )
}

/// What the measured phases produced.
struct Measured {
    open: Vec<Rec>,
    sat: Vec<Rec>,
    sat_secs: f64,
    /// The daemon's `metrics` op after both phases.
    metrics: JsonValue,
    /// The daemon's peak RSS.
    rss_mb: f64,
    /// Hot and cold open-loop latencies (ms), sorted.
    hot_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    /// (ok, busy, errors, mismatched)
    ends: [u64; 4],
}

/// Runs both phases against the set-up daemon, drains it, then checks
/// every response and the request accounting.
fn measure(
    wl: &str,
    su: &mut Setup,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let open: Vec<usize> = (0..su.n_open).collect();
    let sat: Vec<usize> = (su.n_open..su.mix.len()).collect();
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let addr = su.daemon.addr;
    let (mut open_recs, _) = tr.span("loadgen.open_loop", |_| {
        drive(addr, &su.mix, &open, Some(interval))
    });
    let (mut sat_recs, sat_t0) =
        tr.span("loadgen.saturation", |_| drive(addr, &su.mix, &sat, None));
    let sat_secs = sat_t0.elapsed().as_secs_f64();
    let metrics = tr.span("serve.metrics", |_| daemon_metrics(addr))?;
    let rss_mb = peak_rss_mb(Some(su.daemon.child.id()));
    tr.span("serve.shutdown", |_| su.daemon.shutdown())?;
    tr.span("bench.verify", |_| {
        verify_all(&su.mix, &mut open_recs, &su.warm, out);
        verify_all(&su.mix, &mut sat_recs, &su.warm, out);
    });

    let all = || open_recs.iter().chain(&sat_recs);
    let count = |e: End| all().filter(|r| r.end == e).count() as u64;
    let ends = [End::Ok, End::Busy, End::Error, End::Mismatched].map(count);
    let sent = (open.len() + sat.len()) as u64;
    if sent != ends.iter().sum::<u64>() || all().count() as u64 != sent {
        out.problem(format!(
            "accounting: sent {sent} != ok + busy + errors + mismatched {ends:?}"
        ));
    }
    out.ops(sent, sent - ends[0]);

    let by_temp = |hot: bool| {
        let recs: Vec<&Rec> = open_recs
            .iter()
            .filter(|r| su.mix[r.idx].hot == hot)
            .collect();
        latencies(&recs)
    };
    let (hot_ms, cold_ms) = (by_temp(true), by_temp(false));
    if hot_ms.is_empty() || cold_ms.is_empty() {
        return Err("the mix has no hot or no cold open-loop requests".to_string());
    }
    eprintln!(
        "{wl}: open loop {} req ({} hot, {} cold) at {RATE_PER_S} req/s; saturation {} req in \
         {sat_secs:.2} s; ok/busy/errors/mismatched {ends:?}",
        open.len(),
        hot_ms.len(),
        cold_ms.len(),
        sat.len()
    );
    Ok(Measured {
        open: open_recs,
        sat: sat_recs,
        sat_secs,
        metrics,
        rss_mb,
        hot_ms,
        cold_ms,
        ends,
    })
}

/// Runs the serve-mixed workload.
pub fn run(args: &Args, state: &Path) -> Result<Outcome, String> {
    let wl = args.workload_name();
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace, wl);
    let dir = state.join("daemon-cache");

    // Set-up is repeated and its median reported; every repetition
    // starts from an empty cache and a fresh daemon, and the last one
    // is measured.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut host = HostSpeed::new();
    let mut setups = Vec::new();
    let mut counts = Counts::default();
    let mut replay_p50 = 0.0;
    let m = tr.span("traced", |tr| -> Result<Measured, String> {
        let mut setup: Option<Setup> = None;
        for _ in 0..reps {
            if let Some(mut old) = setup.take() {
                old.daemon.shutdown()?;
            }
            // Set-up is CPU-bound (generation, cold builds), so it is
            // scaled to the reference host speed like the pipelines;
            // request latencies are dominated by the wire and stay raw.
            let t = Instant::now();
            setup = Some(set_up(args, &dir, tr)?);
            let raw = t.elapsed().as_secs_f64();
            setups.push(raw * host.factor());
        }
        let mut su = setup.expect("one set-up ran");
        let m = measure(wl, &mut su, tr, &mut out)?;
        if args.trace {
            // The in-process replay of the open loop's hot requests, in
            // order, then every op over each hot program so all four ops
            // get a replay time; the layer probe covers every program
            // the open loop sent.
            let mut replay: Vec<JobRequest> = m
                .open
                .iter()
                .filter(|r| su.mix[r.idx].hot)
                .map(|r| job(&su.mix[r.idx]))
                .collect();
            let n_seq = replay.len();
            let mut pool: Vec<&ServeRequest> = su.mix.iter().filter(|r| r.hot).collect();
            pool.sort_by(|a, b| a.name.cmp(&b.name));
            pool.dedup_by(|a, b| a.name == b.name);
            for r in pool {
                for op in OPS {
                    replay.push(JobRequest { op, ..job(r) });
                }
            }
            let mut progs: Vec<Prog> = Vec::new();
            for r in &su.mix[..su.n_open] {
                if !progs.iter().any(|p| p.name == r.name) {
                    progs.push(Prog {
                        name: r.name.clone(),
                        source: r.source.clone(),
                    });
                }
            }
            layers::probe(tr, &dir, &progs, &replay, n_seq, &mut counts, &mut out)?;
            let seq: Vec<f64> = counts
                .replay_seq_ns
                .iter()
                .map(|&v| v as f64 / 1e6)
                .collect();
            replay_p50 = median(&seq);
        }
        Ok(m)
    })?;

    if !args.trace {
        out.put("cold_p50_ms", quantile(&m.cold_ms, 0.5), "ms");
        out.put("cold_p90_ms", quantile(&m.cold_ms, 0.9), "ms");
        out.put("warm_p50_ms", quantile(&m.hot_ms, 0.5), "ms");
        out.put("warm_p90_ms", quantile(&m.hot_ms, 0.9), "ms");
        let sat_ok = m.sat.iter().filter(|r| r.end == End::Ok).count();
        out.put("throughput_per_s", sat_ok as f64 / m.sat_secs, "1/s");
        out.put("setup_s", median(&setups), "s");
        return Ok(out);
    }

    let split = LayerReport {
        tr: &tr,
        counts: &counts,
        prepare_ms: 0.0,
    }
    .emit(&mut out)?;
    emit_daemon(&m, &mut out);
    out.put("host.kernel_ms", median(&host.samples), "ms");
    let hot_p50 = quantile(&m.hot_ms, 0.5);
    out.put("serve.unexplained_ms", hot_p50 - replay_p50, "ms");
    eprintln!(
        "{wl}: hot p50 {hot_p50:.3} ms, in-process replay p50 {replay_p50:.3} ms: \
         {:.1}% of hot p50 is wire + queue + dispatch",
        100.0 * (hot_p50 - replay_p50) / hot_p50
    );
    crate::report_split(wl, &split, &tr);
    crate::write_spans(&tr, wl, args.seed);
    Ok(out)
}

/// The per-layer metrics only a live daemon gives: its own counters
/// (each ratio with its base), response sizes, generator lateness and
/// the request accounting.
fn emit_daemon(m: &Measured, out: &mut Outcome) {
    let read = |group: &str, k: &str| {
        m.metrics
            .get(group)
            .and_then(|c| c.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let jobs = read("counters", "serve.jobs_executed");
    let waits = read("counters", "serve.coalesced_waits");
    out.put("serve.coalesced_ratio", ratio(waits, jobs + waits), "ratio");
    out.put("serve.job_requests", jobs + waits, "count");
    let (mut hits, mut lookups) = (0.0, 0.0);
    for kind in ["program", "trace", "image"] {
        let h = read("gauges", &format!("serve.engine.{kind}_hits"));
        hits += h;
        lookups += h + read("gauges", &format!("serve.engine.{kind}_misses"));
    }
    out.put("serve.cache_hit_ratio", ratio(hits, lookups), "ratio");
    out.put("serve.cache_lookups", lookups, "count");
    let memo = read("counters", "decode.codec_memo_hits");
    let memo_all = memo + read("counters", "decode.codec_memo_misses");
    out.put("serve.codec_memo_hit_ratio", ratio(memo, memo_all), "ratio");
    out.put("serve.codec_lookups", memo_all, "count");
    out.put("serve.jobs_executed", jobs, "count");
    out.put(
        "serve.busy_rejections",
        read("counters", "serve.busy_rejections"),
        "count",
    );
    for op in OPS {
        let sizes: Vec<f64> = m
            .open
            .iter()
            .chain(&m.sat)
            .filter(|r| r.end == End::Ok && r.op == op.name())
            .map(|r| r.resp.len() as f64)
            .collect();
        let mean = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<f64>() / sizes.len() as f64
        };
        out.put(
            &format!("proto.response_bytes.{}", op.name()),
            mean,
            "bytes",
        );
    }
    let late = sorted(m.open.iter().map(|r| r.late_ns as f64 / 1e6).collect());
    out.put("loadgen.late_p90_ms", quantile(&late, 0.9), "ms");
    let sent = (m.open.len() + m.sat.len()) as u64;
    out.put("loadgen.sent", sent as f64, "count");
    for (k, v) in ["ok", "busy", "errors", "mismatched"].iter().zip(m.ends) {
        out.put(&format!("loadgen.{k}"), v as f64, "count");
    }
    // Spans wrap whole phases here, never single requests, so the
    // measured phases run exactly as untraced.
    out.put("trace.overhead_ms", 0.0, "ms");
    out.put("peak_rss_mb", m.rss_mb, "MB");
}
