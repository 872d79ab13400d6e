//! Extension experiment: fault injection on the compressed ROM image.
//!
//! Injects faults (bit flips, stuck-at, 2–8-bit bursts) into the
//! payload, the decode dictionaries and the ATT entries of every scheme,
//! classifying each as detected, contained, SDC or masked.
//! Deterministic: same seed, same table.

use ccc_bench::engine::Engine;
use ccc_core::fault::CampaignConfig;

fn main() {
    let t0 = std::time::Instant::now();
    let engine = Engine::from_env();
    let prepared = engine.prepare_all().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let cfg = CampaignConfig {
        seed: 42,
        faults_per_target: 100,
    };
    print!(
        "{}",
        ccc_bench::figures::ext_fault_campaign(&prepared, &cfg)
    );
    ccc_bench::history::append_best_effort(&ccc_bench::history::engine_record(
        "ext_fault_campaign",
        0,
        0,
        &engine,
        t0.elapsed().as_nanos() as u64,
    ));
}
