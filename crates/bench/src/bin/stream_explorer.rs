//! The six stream configurations (paper Figure 3 / §2.2): code size and
//! decoder complexity of every configuration on every workload, making
//! the paper's stream/stream_1 selection reproducible.

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::stream_explorer(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "stream_explorer",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
