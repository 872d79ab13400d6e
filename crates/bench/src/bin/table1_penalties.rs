//! Table 1 — the cycle-count assumptions of the cache study (a model
//! *input*; printed for the record).

fn main() {
    let t0 = std::time::Instant::now();
    print!("{}", ccc_bench::figures::table1());
    ccc_bench::history::append_best_effort(&ccc_bench::history::base_record(
        "table1_penalties",
        0,
        0,
        t0.elapsed().as_nanos() as u64,
    ));
}
