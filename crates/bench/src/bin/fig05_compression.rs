//! Figure 5 — "Different Compression Techniques comparison (code segment
//! only)": per benchmark, the code segment size of every scheme as a
//! percentage of the original image.

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let reports = engine.reports(&prepared);
    print!("{}", ccc_bench::figures::fig05(&reports));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "fig05_compression",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
