//! Figure 14 — "Memory Bus Bit flips Summary": switching activity on the
//! 64-bit code-memory bus for Base / Compressed / Tailored (the power
//! proxy; each miss moves encoded lines across the bus).

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::fig14(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "fig14_bus_power",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
