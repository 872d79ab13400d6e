//! Calibration probe: generate a corpus, compile + run everything, and
//! print the generated-vs-target mix table. This is the tool used to
//! tune the signature table in `gen.rs` — run it after changing any
//! statement template.
//!
//! ```sh
//! cargo run --release -p ccc-workgen --example genprobe -- [seed] [tier] [flavor]
//! ```

use ccc_workgen::{generate_corpus, CalibrationReport, Flavor, MixProfile, Tier};
use yula::{Emulator, Limits};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let tier = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(Tier::Paper);
    let flavor = args
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(Flavor::Tepic);

    let opts = lego::Options::default();
    let corpus = generate_corpus(seed, tier, flavor).unwrap();
    let mut programs = Vec::new();
    let mut traces = Vec::new();
    let mut dyn_ops = 0u64;
    let mut static_ops = 0u64;
    let mut dyn_min = u64::MAX;
    let mut dyn_max = 0u64;
    for gp in &corpus.programs {
        let p = lego::compile(&gp.source, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}\n{}", gp.name, gp.source));
        let r = Emulator::new(&p)
            .run(&Limits { max_ops: 5_000_000 })
            .unwrap_or_else(|e| panic!("{}: {e}", gp.name));
        static_ops += p.num_ops() as u64;
        dyn_ops += r.stats.ops;
        dyn_min = dyn_min.min(r.stats.ops);
        dyn_max = dyn_max.max(r.stats.ops);
        programs.push(p);
        traces.push(r.trace);
    }

    let report = CalibrationReport {
        seed,
        tier: tier.name().to_string(),
        flavor: flavor.name().to_string(),
        programs: corpus.programs.len(),
        source_bytes: corpus.source_bytes(),
        static_ops,
        blocks: programs.iter().map(|p| p.num_blocks() as u64).sum(),
        dynamic_ops: dyn_ops,
        target: flavor.target(),
        measured_real: MixProfile::measured_real().clone(),
        generated_static: MixProfile::from_programs(&programs),
        generated_dynamic: MixProfile::from_traces(programs.iter().zip(traces.iter())),
        threshold_pp: 5.0,
        scheme_sites: Vec::new(),
        campaign: None,
    };
    print!("{}", report.render());
    println!(
        "per-program static avg {} ops; dynamic min {dyn_min} max {dyn_max}",
        static_ops / programs.len() as u64
    );
}
