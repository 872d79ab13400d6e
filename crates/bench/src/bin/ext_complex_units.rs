//! Extension experiment (paper §7 future work): complex blocks as fetch
//! units. Profile-formed chains of fall-through blocks become the unit
//! of translation, prediction and atomic placement; this measures the
//! IPC and bus-traffic consequences against per-block fetch.

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::ext_complex_units(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "ext_complex_units",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
