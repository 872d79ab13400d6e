//! Extension experiment for the paper's §1 remark that VLIW code
//! duplication must be "restricted to RISC-like levels": what does tail
//! duplication actually trade on this system?

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::ext_tail_duplication(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "ext_tail_duplication",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
