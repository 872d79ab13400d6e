//! Figure 13 — "Cache Study Summary": operations delivered per cycle for
//! Ideal / Base / Compressed / Tailored on every benchmark (6-issue core,
//! 16KB 2-way caches, 20KB for Base).

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::fig13(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "fig13_cache_study",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
