//! Table 2 — the baseline TEPIC ISA operation formats (a model *input*;
//! printed for the record).

fn main() {
    let t0 = std::time::Instant::now();
    print!("{}", ccc_bench::figures::table2());
    ccc_bench::history::append_best_effort(&ccc_bench::history::base_record(
        "table2_formats",
        0,
        0,
        t0.elapsed().as_nanos() as u64,
    ));
}
