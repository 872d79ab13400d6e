//! The encoding/IFetch tradeoff, end to end, on one benchmark: sweep the
//! cache size and watch who wins — the paper's central insight is that
//! the best scheme depends on whether compression's capacity win
//! outweighs its deeper misprediction penalty.
//!
//! ```sh
//! cargo run --example fetch_tradeoff --release [workload]
//! ```

use tepic_ccc::prelude::*;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "compress".to_string());
    let workload = workloads::by_name(&name).unwrap_or_else(|| {
        eprintln!(
            "unknown workload {name}; available: {}",
            workloads::ALL
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    });

    let (program, run) = workload.compile_and_run().expect("workload runs");
    let base_img = schemes::base::encode_base(&program);
    let tailored = schemes::tailored::TailoredScheme
        .compress(&program)
        .expect("tailored")
        .image;
    let full = schemes::full::FullScheme::default()
        .compress(&program)
        .expect("full")
        .image;

    println!(
        "{}: {} ops, base image {} B, tailored {} B ({:.0}%), compressed {} B ({:.0}%)",
        workload.name,
        program.num_ops(),
        base_img.total_bytes(),
        tailored.total_bytes(),
        tailored.ratio(base_img.total_bytes()) * 100.0,
        full.total_bytes(),
        full.ratio(base_img.total_bytes()) * 100.0,
    );
    println!(
        "\n{:>8} {:>9} {:>9} {:>11} {:>10}",
        "cache B", "ideal", "base", "compressed", "tailored"
    );

    for shift in 0..8 {
        let cap = 256usize << shift;
        let mk = |class: EncodingClass| -> FetchConfig {
            let mut cfg = FetchConfig::for_class(class);
            cfg.cache.capacity = cap;
            cfg
        };
        let ideal = simulate(&program, &base_img, &run.trace, &mk(EncodingClass::Ideal));
        let base = simulate(&program, &base_img, &run.trace, &mk(EncodingClass::Base));
        let comp = simulate(&program, &full, &run.trace, &mk(EncodingClass::Compressed));
        let tail = simulate(
            &program,
            &tailored,
            &run.trace,
            &mk(EncodingClass::Tailored),
        );
        let best = [base.ipc(), comp.ipc(), tail.ipc()]
            .into_iter()
            .fold(f64::MIN, f64::max);
        let mark = |v: f64| if (v - best).abs() < 1e-12 { " *" } else { "" };
        println!(
            "{:>8} {:>9.3} {:>7.3}{} {:>9.3}{} {:>8.3}{}",
            cap,
            ideal.ipc(),
            base.ipc(),
            mark(base.ipc()),
            comp.ipc(),
            mark(comp.ipc()),
            tail.ipc(),
            mark(tail.ipc()),
        );
    }
    println!("\n(* = best real encoding at that cache size)");
    println!("Small caches: compression's capacity advantage dominates.");
    println!("Large caches: everything fits; the shallower pipelines win.");
}
