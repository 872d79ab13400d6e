//! Extension experiment (paper §7 future work): replace the ATB's 2-bit
//! per-block counters with a gshare direction predictor and measure the
//! effect on prediction accuracy and IPC for each encoding.

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::ext_gshare(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "ext_gshare",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
