//! Ablation studies over the microarchitectural design choices:
//!
//! 1. L0 buffer capacity (paper §4 fixes 32 ops — what does the choice
//!    cost?);
//! 2. the Huffman length bound of the byte scheme (code size vs decoder
//!    size — the bounded-Huffman escape of §2.2);
//! 3. ATB capacity (the §3.3 "low contention" claim under pressure);
//! 4. cache associativity.
//!
//! Each table averages over all eight workloads.

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::ablations(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "ablations",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
