//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-figures|corpus-10x|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). Inputs derive from `--seed` only. With
//! `--trace 0` it measures the end-to-end metrics for about `--seconds`;
//! with `--trace 1` it makes one traced pass and reports the per-layer
//! split instead. Every output is checked; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` whose
//! metric names and units are exactly those `BENCHMARK.json` declares.
//! Scratch state lives in `.bench_state/` under the working directory
//! and is removed on exit; traced runs leave their spans in
//! `.bench_state/traces/`.
//!
//! End-to-end metrics are workload-neutral, since every workload prints
//! all of them: `cold_*`/`warm_*` are one pipeline pass against an empty
//! / a filled artifact cache, or one cold / hot daemon request;
//! `throughput_per_s` is programs per second through cold passes, or
//! daemon completions per second at saturation. CPU-bound timings (the
//! pipelines, every set-up) are scaled to a reference host speed by
//! `stats::HostSpeed`; daemon request latencies, dominated by the wire,
//! are raw.
//!
//! `perfbench --daemon <cache-dir>` is the fresh `tepic-ccd` that the
//! `serve-mixed` workload starts for each run: the same server the
//! daemon binary runs, at the benchmark's fixed `jobs`.

mod layers;
mod pipeline;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spans::Tracer;
use tepic_ccc::telemetry::parse_json;

/// Worker threads for the engine and the daemon, fixed so results do not
/// depend on the core count of the machine running the benchmark.
pub const JOBS: usize = 2;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["paper-figures", "corpus-10x", "serve-mixed"];

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(v.clone()),
                "--seed" => seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?),
                "--seconds" => {
                    seconds = Some(
                        v.parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && s.is_finite())
                            .ok_or_else(|| format!("bad --seconds {v}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {v}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// The workload name as a `'static` label.
    pub fn workload_name(&self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|w| **w == self.workload)
            .expect("validated in parse")
    }
}

/// A run's result line.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// Records one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records one operation and whether it (and its output check)
    /// succeeded.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(e);
            }
        }
    }

    /// Adds operations counted elsewhere.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a problem without an operation of its own.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, (v, u))| {
                // JSON has no infinity: a failed request's latency is
                // printed as the largest finite double.
                let v = if v.is_finite() { *v } else { f64::MAX };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The metric names and units `BENCHMARK.json` declares for a mode.
fn declared(trace: bool) -> Result<BTreeMap<String, String>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json lacks {key}"))?;
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("malformed {key} entry"))
        })
        .collect()
}

/// Prints the per-layer split of a traced run to stderr, with the two
/// leading layers among those the probe drives directly (the engine,
/// figure and daemon spans enclose those layers' work, so they are
/// ranked apart).
pub fn report_split(wl: &str, split: &[(&'static str, f64)], tr: &Tracer) {
    let wall = tr.wall_ns() as f64 / 1e6;
    eprintln!("{wl}: traced wall {wall:.1} ms; self time per layer:");
    let mut rows = split.to_vec();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (layer, t) in &rows {
        eprintln!("  {layer:<10} {t:>10.1} ms  {:>5.1}%", 100.0 * t / wall);
    }
    let direct: Vec<&str> = rows
        .iter()
        .map(|(l, _)| *l)
        .filter(|l| ["lego", "yula", "ccc_core", "huffman", "ifetch"].contains(l))
        .take(2)
        .collect();
    eprintln!(
        "{wl}: leading directly-driven layers: {}",
        direct.join(", ")
    );
}

/// Writes a traced run's spans as JSON lines under `.bench_state/traces/`.
pub fn write_spans(tr: &Tracer, wl: &str, seed: u64) {
    let dir = PathBuf::from(".bench_state/traces");
    let path = dir.join(format!("{wl}-{seed}-{}.jsonl", std::process::id()));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn run(args: &Args, state: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-figures" => pipeline::run(pipeline::Suite::Paper, args, state),
        "corpus-10x" => pipeline::run(pipeline::Suite::Corpus, args, state),
        _ => serve::run(args, state),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--daemon") {
        return serve::daemon_main(&argv[1..]);
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let want = match declared(args.trace) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let state = PathBuf::from(".bench_state").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&state) {
        eprintln!("perfbench: cannot create {}: {e}", state.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &state);
    let _ = std::fs::remove_dir_all(&state);
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let got: BTreeMap<String, String> = out
        .metrics
        .iter()
        .map(|(n, (_, u))| (n.clone(), (*u).to_string()))
        .collect();
    if got != want {
        eprintln!("perfbench: emitted metrics do not match BENCHMARK.json:");
        for (n, u) in &want {
            if got.get(n) != Some(u) {
                eprintln!("  declared {n} [{u}], emitted {:?}", got.get(n));
            }
        }
        for n in got.keys().filter(|n| !want.contains_key(*n)) {
            eprintln!("  undeclared {n}");
        }
        return ExitCode::FAILURE;
    }
    if out.failed > 0 && out.problems.is_empty() {
        out.problem(format!("{} operation(s) failed", out.failed));
    }
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
