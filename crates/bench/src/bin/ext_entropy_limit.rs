//! Extension experiment for the paper's §2.2 entropy-limit observation:
//! whole-op Huffman (`full`) against op-pair Huffman (`pair`) — per-op
//! entropy vs measured bits/op, and the total ROM+dictionary cost that
//! makes pairing a bad trade.

use ccc_bench::engine::Engine;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    print!("{}", ccc_bench::figures::ext_entropy_limit(&prepared));
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "ext_entropy_limit",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
