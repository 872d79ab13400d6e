//! Workload inventory: static/dynamic sizes, trace shape and operation
//! mix for every benchmark (sanity data behind the figure experiments).

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::diag(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "diag",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
