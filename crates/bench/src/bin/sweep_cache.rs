//! Diagnostic sweep: Base-encoding ICache hit rate vs capacity, per
//! workload. Used to choose the scaled cache sizes that preserve the
//! paper's code-size : cache-size pressure.

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::sweep_cache(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "sweep_cache",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
