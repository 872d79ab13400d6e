//! Figure 7 — "ATB Characteristics. Total code size": code segment plus
//! the compressed Address Translation Table for each scheme, and the
//! dynamic ATB hit rates showing the buffer's low contention.

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let reports = engine.reports(&prepared);
    print!("{}", ccc_bench::figures::fig07(&reports, &prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "fig07_att_size",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
