//! Figure 10 — "Huffman Decoder Complexity": the worst-case transistor
//! estimate of each scheme's decode hardware (the paper's mux-tree model
//! for Huffman schemes; the PLA model for the tailored ISA).

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let reports = engine.reports(&prepared);
    print!("{}", ccc_bench::figures::fig10(&reports));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "fig10_decoder",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
