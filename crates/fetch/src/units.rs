//! Complex fetch units — the paper's last future-work item ("usage of
//! complex blocks as fetch units", §7; §3.1 sketches superblocks/traces
//! as candidate units "formed at compilation with the use of profile
//! information").
//!
//! A *fetch unit* is a maximal chain of layout-sequential basic blocks
//! where the profile says each block overwhelmingly falls through to the
//! next, and the next is rarely entered from anywhere else (the paper's
//! "side entrances … not taken frequently" condition). The ATB then
//! works at unit granularity: one translation + one prediction per unit
//! instead of per block — fewer prediction points and longer streaming
//! runs, paid for by over-fetch when the trace leaves a unit early.

use crate::engine::{FetchConfig, FetchPath, FetchResult};
use crate::penalty::Outcome;
use ccc_core::{AddressTranslationTable, EncodedProgram};
use tepic_isa::Program;
use yula::BlockTrace;

/// The block→unit partition.
#[derive(Debug, Clone)]
pub struct FetchUnits {
    /// Unit id of each block.
    unit_of: Vec<u32>,
    /// First block of each unit (units cover contiguous block ranges).
    first_block: Vec<u32>,
    /// Block count of each unit.
    len: Vec<u32>,
}

impl FetchUnits {
    /// Forms units from a profile (the dynamic trace): block `b` chains
    /// to `b+1` when at least `theta` of b's executions fall through AND
    /// at least `theta` of `b+1`'s entries come from `b`.
    pub fn form(program: &Program, trace: &BlockTrace, theta: f64) -> FetchUnits {
        let n = program.num_blocks();
        let mut execs = vec![0u64; n];
        let mut fallthrough = vec![0u64; n];
        let mut entries = vec![0u64; n];
        let mut entries_from_prev = vec![0u64; n];
        for (cur, next) in trace.transitions() {
            execs[cur as usize] += 1;
            if let Some(nx) = next {
                entries[nx as usize] += 1;
                if nx == cur + 1 {
                    fallthrough[cur as usize] += 1;
                    entries_from_prev[nx as usize] += 1;
                }
            }
        }
        let mut unit_of = vec![0u32; n];
        let mut first_block = Vec::new();
        let mut len = Vec::new();
        let mut b = 0usize;
        while b < n {
            let unit = first_block.len() as u32;
            first_block.push(b as u32);
            let mut count = 1u32;
            while b + (count as usize) < n {
                let cur = b + count as usize - 1;
                let nxt = cur + 1;
                let chain = execs[cur] > 0
                    && fallthrough[cur] as f64 >= theta * execs[cur] as f64
                    && entries[nxt] > 0
                    && entries_from_prev[nxt] as f64 >= theta * entries[nxt] as f64
                    && program.blocks()[cur].func == program.blocks()[nxt].func;
                if !chain {
                    break;
                }
                count += 1;
            }
            for k in 0..count {
                unit_of[b + k as usize] = unit;
            }
            len.push(count);
            b += count as usize;
        }
        FetchUnits {
            unit_of,
            first_block,
            len,
        }
    }

    /// Unit id of a block.
    pub fn unit_of(&self, block: u32) -> u32 {
        self.unit_of[block as usize]
    }

    /// Number of units.
    pub fn num_units(&self) -> usize {
        self.first_block.len()
    }

    /// `(first_block, num_blocks)` of a unit.
    pub fn unit(&self, u: u32) -> (u32, u32) {
        (self.first_block[u as usize], self.len[u as usize])
    }

    /// Mean blocks per unit.
    pub fn avg_len(&self) -> f64 {
        if self.len.is_empty() {
            return 0.0;
        }
        self.len.iter().map(|&l| l as f64).sum::<f64>() / self.len.len() as f64
    }
}

/// Simulates fetch with complex units: on entering a unit (at its head
/// or through a side entrance), the span from the entry block to the
/// unit end is fetched atomically; blocks stream with no further
/// prediction until the trace leaves the span.
pub fn simulate_with_units(
    program: &Program,
    image: &EncodedProgram,
    trace: &BlockTrace,
    config: &FetchConfig,
    units: &FetchUnits,
) -> FetchResult {
    let att = AddressTranslationTable::build(program, image);
    let mut path = FetchPath::new(config);
    let mut r = FetchResult::zero(config.class);

    let blocks = trace.blocks();
    let mut i = 0usize;
    let mut predicted_entry: Option<u32> = None;
    while i < blocks.len() {
        let entry = blocks[i];
        let unit = units.unit_of(entry);
        let (ufirst, ulen) = units.unit(unit);
        let uend = ufirst + ulen; // exclusive

        // Follow the trace while it streams sequentially inside the unit.
        let mut span = 1usize;
        while i + span < blocks.len()
            && blocks[i + span] == entry + span as u32
            && entry + (span as u32) < uend
        {
            span += 1;
        }
        let last = entry + span as u32 - 1;

        // Fetch the span [entry, unit end) atomically — the unit is the
        // placement granule, so over-fetch past `last` is real cost.
        let (start, _) = image.block_range(entry as usize);
        let (_, end) = image.block_range(uend as usize - 1);
        let lines = config.cache.lines_spanned(start, end);

        let predicted = predicted_entry.is_none_or(|p| p == entry);
        if predicted_entry.is_some() {
            if predicted {
                r.pred_correct += 1;
            } else {
                r.pred_wrong += 1;
            }
        }

        let atb_hit = path.atb.access(entry, att.lookup(entry as usize));
        if path.translated && !atb_hit {
            r.cycles += config.atb_miss_penalty as u64;
        }

        let span_ops: u64 = (entry..=last)
            .map(|b| program.blocks()[b as usize].num_ops as u64)
            .sum();
        let span_mops: u64 = (entry..=last)
            .map(|b| program.blocks()[b as usize].num_mops as u64)
            .sum();
        r.ops += span_ops;
        r.mops += span_mops;

        let buffer_hit = path.compressed
            && path
                .buffer
                .access(entry, span_ops.min(u32::MAX as u64) as u32);
        let cache_hit = if buffer_hit {
            true
        } else {
            let access = path.cache.access_block(start, end);
            for &l in &access.fetched_lines {
                path.bus
                    .transfer_line(&image.bytes, l, config.cache.line_bytes);
            }
            access.hit
        };

        let pen = config.penalties.penalty(Outcome {
            predicted,
            cache_hit,
            buffer_hit,
        });
        r.cycles += pen.cycles(lines) as u64 + span_mops.saturating_sub(1);

        // One prediction per unit exit.
        i += span;
        if i < blocks.len() {
            predicted_entry = Some(path.atb.predict_next(last));
            path.atb.train(last, blocks[i]);
        }
    }

    path.harvest(&mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccc_core::schemes::base::encode_base;
    use yula::{Emulator, Limits};

    fn setup(src: &str) -> (Program, BlockTrace, EncodedProgram) {
        let p = lego::compile(src, &lego::Options::default()).unwrap();
        let run = Emulator::new(&p).run(&Limits::default()).unwrap();
        let img = encode_base(&p);
        (p, run.trace, img)
    }

    #[test]
    fn units_partition_all_blocks() {
        let (p, trace, _) = setup(
            "fn main() { var i; var s = 0; for (i = 0; i < 50; i = i + 1) { s = s + i; } print(s); }",
        );
        let units = FetchUnits::form(&p, &trace, 0.8);
        let mut covered = 0u32;
        for u in 0..units.num_units() as u32 {
            let (first, len) = units.unit(u);
            for b in first..first + len {
                assert_eq!(units.unit_of(b), u);
                covered += 1;
            }
        }
        assert_eq!(covered as usize, p.num_blocks());
        assert!(units.avg_len() >= 1.0);
    }

    #[test]
    fn straightline_code_forms_long_units() {
        let (p, trace, _) = setup(
            r#"
            global a[16];
            fn main() {
                a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
                a[4] = a[0] + a[1]; a[5] = a[2] * a[3];
                print(a[4] + a[5]);
            }
        "#,
        );
        let units = FetchUnits::form(&p, &trace, 0.8);
        // Straight-line main: strictly fewer units than blocks whenever
        // there are multiple blocks.
        if p.num_blocks() > 2 {
            assert!(units.num_units() < p.num_blocks());
        }
    }

    #[test]
    fn unit_simulation_conserves_ops_and_bounds_ipc() {
        let (p, trace, img) = setup(
            r#"
            fn main() {
                var i; var s = 0;
                for (i = 0; i < 200; i = i + 1) {
                    s = s + i;
                    if (s > 1000) { s = s - 1000; }
                }
                print(s);
            }
        "#,
        );
        let units = FetchUnits::form(&p, &trace, 0.8);
        let cfg = FetchConfig::base();
        let unit_r = simulate_with_units(&p, &img, &trace, &cfg, &units);
        let block_r = crate::engine::simulate(&p, &img, &trace, &cfg);
        assert_eq!(unit_r.ops, block_r.ops, "same instruction stream");
        assert!(unit_r.ipc() <= 6.0 + 1e-9);
        // Fewer prediction points at unit granularity.
        assert!(
            unit_r.pred_correct + unit_r.pred_wrong <= block_r.pred_correct + block_r.pred_wrong
        );
    }

    #[test]
    fn theta_one_degenerates_to_blocks() {
        let (p, trace, img) =
            setup("fn main() { var i; for (i = 0; i < 20; i = i + 1) { print(i); } }");
        // theta > 1 can never chain, so every block is its own unit and
        // the unit engine must agree with the block engine on delivered
        // work.
        let units = FetchUnits::form(&p, &trace, 1.1);
        assert_eq!(units.num_units(), p.num_blocks());
        let cfg = FetchConfig::base();
        let unit_r = simulate_with_units(&p, &img, &trace, &cfg, &units);
        let block_r = crate::engine::simulate(&p, &img, &trace, &cfg);
        assert_eq!(unit_r.ops, block_r.ops);
        assert_eq!(
            unit_r.cycles, block_r.cycles,
            "degenerate units must match exactly"
        );
    }
}
