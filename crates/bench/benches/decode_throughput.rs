//! Decode-kernel throughput: the word-at-a-time [`BitReader`] +
//! two-level-LUT [`LutDecoder`] fast path against the bit-serial
//! [`CanonicalDecoder`] reference, over each Huffman scheme's real
//! tables and symbol streams.
//!
//! Workloads: the `go` benchmark plus a seeded `ccc-workgen` tiny-tier
//! corpus (`CCC_DECODE_SEED`, default 42), so throughput numbers are
//! not one-workload artifacts. `--lut-bits <n[,n..]>` sweeps the
//! first-level table size (8–16); the default sweep is `8,11,16`.
//!
//! Panels time with `bench_best` (best sample, not mean): host
//! interference only adds time, so the minimum estimates the kernel's
//! own cost and keeps the regression gate stable on busy machines.
//!
//! Besides the usual per-iteration prints, this bench writes
//! `results/decode_throughput.txt` (human table) and
//! `results/BENCH_decode.json` (machine-readable) and exits non-zero
//! when the LUT path is slower than the reference on any Huffman
//! scheme — the table can only skip work the reference does, so a
//! slower LUT means the fast path has regressed.
//!
//! Set `CCC_DECODE_SMOKE=1` for a short smoke measurement.

use ccc_bench::engine::cache::write_atomic;
use ccc_bench::history;
use ccc_core::schemes::stream::StreamConfig;
use ccc_core::schemes::{EncodingClass, MATRIX};
use ccc_telemetry::ledger;
use criterion::Criterion;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Duration;
use tepic_isa::Program;
use tinker_huffman::{BitReader, BitWriter, CanonicalDecoder, CodeBook, Dictionary, LutDecoder};

/// One scheme's decode workload over one program: its Huffman tables,
/// the symbol sequence in decode order (`order[i]` names the table
/// `syms[i]` was coded with — streams interleave several tables per
/// op), and the encoded bitstream.
struct DecodeWorkload {
    books: Vec<CodeBook>,
    order: Vec<u32>,
    syms: Vec<u32>,
    bytes: Vec<u8>,
}

impl DecodeWorkload {
    fn new(books: Vec<CodeBook>, order: Vec<u32>, syms: Vec<u32>) -> Self {
        assert_eq!(order.len(), syms.len());
        let mut w = BitWriter::new();
        for (&bi, &s) in order.iter().zip(&syms) {
            books[bi as usize].try_encode_into(s, &mut w).unwrap();
        }
        DecodeWorkload {
            books,
            order,
            syms,
            bytes: w.into_bytes(),
        }
    }

    /// Single-table schemes decode whole blocks via `decode_n` (the
    /// codecs' production path); interleaved-table schemes replay the
    /// per-symbol table order exactly as their codecs do.
    fn decode_reference(&self, decs: &[CanonicalDecoder]) -> u64 {
        let mut r = BitReader::new(&self.bytes);
        if decs.len() == 1 {
            return checksum(&decs[0].decode_n(&mut r, self.syms.len()).unwrap());
        }
        let mut acc = 0u64;
        for &bi in &self.order {
            acc = acc.wrapping_add(decs[bi as usize].decode(&mut r).unwrap() as u64);
        }
        acc
    }

    fn decode_lut(&self, decs: &[LutDecoder]) -> u64 {
        let mut r = BitReader::new(&self.bytes);
        if decs.len() == 1 {
            return checksum(&decs[0].decode_n(&mut r, self.syms.len()).unwrap());
        }
        let mut acc = 0u64;
        for &bi in &self.order {
            acc = acc.wrapping_add(decs[bi as usize].decode(&mut r).unwrap() as u64);
        }
        acc
    }
}

fn checksum(syms: &[u32]) -> u64 {
    syms.iter().fold(0u64, |a, &s| a.wrapping_add(s as u64))
}

/// Byte scheme: one table over the code bytes, `max_code_len` 10.
fn byte_workload(p: &Program) -> DecodeWorkload {
    let code = p.code_bytes();
    let mut freqs = [0u64; 256];
    for &b in &code {
        freqs[b as usize] += 1;
    }
    let book = CodeBook::bounded_from_freqs(&freqs, 10).unwrap();
    let syms: Vec<u32> = code.iter().map(|&b| b as u32).collect();
    let order = vec![0u32; syms.len()];
    DecodeWorkload::new(vec![book], order, syms)
}

/// Stream schemes: one table per field stream, interleaved per op.
fn stream_workload(p: &Program, name: &'static str) -> DecodeWorkload {
    let config = StreamConfig::by_name(name).unwrap();
    let words = p.op_words();
    let ns = config.num_streams();
    let mut dicts: Vec<Dictionary<u64>> = vec![Dictionary::new(); ns];
    for &w in &words {
        for (si, dict) in dicts.iter_mut().enumerate() {
            let (off, width) = config.stream_bits(si);
            dict.record((w >> off) & ((1u64 << width) - 1));
        }
    }
    let books: Vec<CodeBook> = dicts
        .iter()
        .map(|d| CodeBook::bounded_from_freqs(d.freqs(), 20).unwrap())
        .collect();
    let mut order = Vec::with_capacity(words.len() * ns);
    let mut syms = Vec::with_capacity(words.len() * ns);
    for &w in &words {
        for (si, dict) in dicts.iter().enumerate() {
            let (off, width) = config.stream_bits(si);
            order.push(si as u32);
            syms.push(dict.id_of(&((w >> off) & ((1u64 << width) - 1))).unwrap());
        }
    }
    DecodeWorkload::new(books, order, syms)
}

/// Full scheme: one table over whole 40-bit op words, `max_code_len` 24.
fn full_workload(p: &Program) -> DecodeWorkload {
    let words = p.op_words();
    let dict: Dictionary<u64> = words.iter().copied().collect();
    let book = CodeBook::bounded_from_freqs(dict.freqs(), 24).unwrap();
    let syms: Vec<u32> = words.iter().map(|w| dict.id_of(w).unwrap()).collect();
    let order = vec![0u32; syms.len()];
    DecodeWorkload::new(vec![book], order, syms)
}

/// Pair scheme: non-overlapping op pairs per block (table 0) plus odd
/// trailing singles (table 1), `max_code_len` 28.
fn pair_workload(p: &Program) -> DecodeWorkload {
    let mut pairs: Dictionary<(u64, u64)> = Dictionary::new();
    let mut singles: Dictionary<u64> = Dictionary::new();
    let block_words: Vec<Vec<u64>> = (0..p.num_blocks())
        .map(|b| p.block_ops(b).iter().map(|o| o.encode()).collect())
        .collect();
    for words in &block_words {
        let mut i = 0;
        while i + 1 < words.len() {
            pairs.record((words[i], words[i + 1]));
            i += 2;
        }
        if i < words.len() {
            singles.record(words[i]);
        }
    }
    let pair_book = CodeBook::bounded_from_freqs(pairs.freqs(), 28).unwrap();
    let single_book = CodeBook::bounded_from_freqs(singles.freqs(), 28).unwrap();
    let mut order = Vec::new();
    let mut syms = Vec::new();
    for words in &block_words {
        let mut i = 0;
        while i + 1 < words.len() {
            order.push(0);
            syms.push(pairs.id_of(&(words[i], words[i + 1])).unwrap());
            i += 2;
        }
        if i < words.len() {
            order.push(1);
            syms.push(singles.id_of(&words[i]).unwrap());
        }
    }
    DecodeWorkload::new(vec![pair_book, single_book], order, syms)
}

/// One scheme measured across every workload program.
struct SchemeRow {
    scheme: &'static str,
    loads: Vec<DecodeWorkload>,
}

fn build_row(scheme: &'static str, programs: &[(String, Program)]) -> SchemeRow {
    let loads = programs
        .iter()
        .map(|(_, p)| match scheme {
            "byte" => byte_workload(p),
            "full" => full_workload(p),
            "pair" => pair_workload(p),
            other => stream_workload(p, other),
        })
        .collect();
    SchemeRow { scheme, loads }
}

struct Measurement {
    scheme: &'static str,
    symbols: usize,
    compressed_bytes: usize,
    ref_ns: f64,
    lut_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.ref_ns / self.lut_ns.max(1e-9)
    }
    fn sym_per_s(&self, ns: f64) -> f64 {
        self.symbols as f64 / (ns * 1e-9)
    }
    fn mb_per_s(&self, ns: f64) -> f64 {
        self.compressed_bytes as f64 / (ns * 1e-9) / 1e6
    }
}

fn measure(c: &mut Criterion, row: &SchemeRow) -> Measurement {
    let refs: Vec<Vec<CanonicalDecoder>> = row
        .loads
        .iter()
        .map(|w| w.books.iter().map(CodeBook::decoder).collect())
        .collect();
    let luts: Vec<Vec<LutDecoder>> = row
        .loads
        .iter()
        .map(|w| w.books.iter().map(CodeBook::lut_decoder).collect())
        .collect();
    // Both paths must observe the exact same symbol sequence.
    for (i, w) in row.loads.iter().enumerate() {
        assert_eq!(
            w.decode_reference(&refs[i]),
            w.decode_lut(&luts[i]),
            "{}: LUT decode diverged from reference",
            row.scheme
        );
    }
    let mut g = c.benchmark_group(row.scheme);
    let ref_ns = g.bench_best("reference", |b| {
        b.iter(|| {
            let mut a = 0u64;
            for (i, w) in row.loads.iter().enumerate() {
                a = a.wrapping_add(black_box(w.decode_reference(&refs[i])));
            }
            a
        })
    });
    let lut_ns = g.bench_best("lut", |b| {
        b.iter(|| {
            let mut a = 0u64;
            for (i, w) in row.loads.iter().enumerate() {
                a = a.wrapping_add(black_box(w.decode_lut(&luts[i])));
            }
            a
        })
    });
    g.finish();
    Measurement {
        scheme: row.scheme,
        symbols: row.loads.iter().map(|w| w.syms.len()).sum(),
        compressed_bytes: row.loads.iter().map(|w| w.bytes.len()).sum(),
        ref_ns,
        lut_ns,
    }
}

/// One `--lut-bits` sweep point: sequential LUT throughput per scheme
/// with the first-level table rebuilt at `lut_bits`.
struct SweepPoint {
    lut_bits: u32,
    mb_per_sec: Vec<(&'static str, f64)>,
}

fn sweep_lut_bits(c: &mut Criterion, rows: &[SchemeRow], sizes: &[u32]) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&bits| {
            let mut g = c.benchmark_group(&format!("lut_bits_{bits}"));
            let mb = rows
                .iter()
                .map(|row| {
                    let luts: Vec<Vec<LutDecoder>> = row
                        .loads
                        .iter()
                        .map(|w| {
                            w.books
                                .iter()
                                .map(|b| LutDecoder::with_lut_bits(b, bits))
                                .collect()
                        })
                        .collect();
                    let ns = g.bench_best(row.scheme, |b| {
                        b.iter(|| {
                            let mut a = 0u64;
                            for (i, w) in row.loads.iter().enumerate() {
                                a = a.wrapping_add(black_box(w.decode_lut(&luts[i])));
                            }
                            a
                        })
                    });
                    let bytes: usize = row.loads.iter().map(|w| w.bytes.len()).sum();
                    (row.scheme, bytes as f64 / (ns * 1e-9) / 1e6)
                })
                .collect();
            g.finish();
            SweepPoint {
                lut_bits: bits,
                mb_per_sec: mb,
            }
        })
        .collect()
}

fn render_table(rows: &[Measurement], names: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Decode kernel throughput — workloads [{}], reference vs LUT",
        names.join(", ")
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "scheme", "symbols", "bytes", "ref MB/s", "lut MB/s", "speedup"
    );
    for m in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>10} {:>12.1} {:>12.1} {:>11.2}x",
            m.scheme,
            m.symbols,
            m.compressed_bytes,
            m.mb_per_s(m.ref_ns),
            m.mb_per_s(m.lut_ns),
            m.speedup()
        );
    }
    out
}

fn render_json(
    rows: &[Measurement],
    sweep: &[SweepPoint],
    names: &[String],
    seed: u64,
    smoke: bool,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"decode_throughput\",");
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    let _ = writeln!(out, "  \"workloads\": [{}],", quoted.join(", "));
    let _ = writeln!(
        out,
        "  \"corpus\": {{ \"seed\": {seed}, \"tier\": \"tiny\", \"flavor\": \"tepic\" }},"
    );
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"lut_bits_default\": {},",
        tinker_huffman::lut::DEFAULT_LUT_BITS
    );
    let _ = writeln!(out, "  \"floor\": {{ \"lut_over_reference\": 1.0 }},");
    let _ = writeln!(out, "  \"schemes\": [");
    for (i, m) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"scheme\": \"{}\",", m.scheme);
        let _ = writeln!(out, "      \"symbols\": {},", m.symbols);
        let _ = writeln!(out, "      \"compressed_bytes\": {},", m.compressed_bytes);
        for (label, ns) in [("reference", m.ref_ns), ("lut", m.lut_ns)] {
            let _ = writeln!(out, "      \"{label}\": {{");
            let _ = writeln!(out, "        \"ns_per_pass\": {ns:.1},");
            let _ = writeln!(out, "        \"symbols_per_sec\": {:.0},", m.sym_per_s(ns));
            let _ = writeln!(out, "        \"mb_per_sec\": {:.3}", m.mb_per_s(ns));
            let _ = writeln!(out, "      }},");
        }
        let _ = writeln!(out, "      \"speedup\": {:.3}", m.speedup());
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"lut_bits_sweep\": [");
    for (i, pt) in sweep.iter().enumerate() {
        let per: Vec<String> = pt
            .mb_per_sec
            .iter()
            .map(|(s, mb)| format!("\"{s}\": {mb:.3}"))
            .collect();
        let _ = writeln!(
            out,
            "    {{ \"lut_bits\": {}, \"mb_per_sec\": {{ {} }} }}{}",
            pt.lut_bits,
            per.join(", "),
            if i + 1 < sweep.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// Parses `--lut-bits n[,n..]` from the bench argv; values clamp to the
/// 8–16 first-level range. Default sweep: 8, the default 11, and 16.
fn lut_bits_arg() -> Vec<u32> {
    let args: Vec<String> = std::env::args().collect();
    let mut sizes = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let val = if args[i] == "--lut-bits" {
            i += 1;
            args.get(i).cloned()
        } else {
            args[i].strip_prefix("--lut-bits=").map(|v| v.to_string())
        };
        if let Some(v) = val {
            for part in v.split(',') {
                if let Ok(n) = part.trim().parse::<u32>() {
                    sizes.push(n.clamp(8, 16));
                }
            }
        }
        i += 1;
    }
    if sizes.is_empty() {
        sizes = vec![8, tinker_huffman::lut::DEFAULT_LUT_BITS, 16];
    }
    sizes.dedup();
    sizes
}

fn main() {
    let t0 = std::time::Instant::now();
    let smoke = std::env::var("CCC_DECODE_SMOKE").is_ok_and(|v| v == "1");
    let mut c = if smoke {
        Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(200))
    } else {
        Criterion::default()
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
    };

    // Workload programs: `go` plus the seeded tiny-tier corpus.
    let seed = std::env::var("CCC_DECODE_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(42);
    let mut programs: Vec<(String, Program)> = vec![(
        "go".to_string(),
        tinker_workloads::by_name("go").unwrap().compile().unwrap(),
    )];
    let corpus =
        ccc_workgen::generate_corpus(seed, ccc_workgen::Tier::Tiny, ccc_workgen::Flavor::Tepic)
            .unwrap();
    for gp in &corpus.programs {
        let p = lego::compile(&gp.source, &lego::Options::default()).unwrap();
        programs.push((gp.name.clone(), p));
    }
    let names: Vec<String> = programs.iter().map(|(n, _)| n.clone()).collect();

    // Every Huffman scheme of the matrix, plus the pair extension.
    let rows: Vec<SchemeRow> = MATRIX
        .iter()
        .filter(|e| e.class == EncodingClass::Compressed)
        .map(|e| e.name)
        .chain(["pair"])
        .map(|s| build_row(s, &programs))
        .collect();
    let measured: Vec<Measurement> = rows.iter().map(|r| measure(&mut c, r)).collect();

    // The lut-bits sweep gets a shorter budget: it is a shape scan, not
    // a headline number.
    let mut sweep_c = if smoke {
        Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(100))
    } else {
        Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(500))
    };
    let sweep = sweep_lut_bits(&mut sweep_c, &rows, &lut_bits_arg());

    let table = render_table(&measured, &names);
    print!("\n{table}");
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    write_atomic(format!("{results}/decode_throughput.txt"), table.as_bytes()).unwrap();
    write_atomic(
        format!("{results}/BENCH_decode.json"),
        render_json(&measured, &sweep, &names, seed, smoke).as_bytes(),
    )
    .unwrap();
    println!("wrote results/decode_throughput.txt and results/BENCH_decode.json");

    // The gate: on every Huffman scheme the LUT path only skips work
    // the reference does, so a slower LUT means the fast path has
    // regressed.
    let slow: Vec<String> = measured
        .iter()
        .filter(|m| m.speedup() < 1.0)
        .map(|m| format!("{} ({:.2}x)", m.scheme, m.speedup()))
        .collect();
    if !slow.is_empty() {
        eprintln!(
            "REGRESSION: LUT decode slower than reference on {}",
            slow.join(", ")
        );
        std::process::exit(1);
    }

    // The gate held: append this run to the ledger so `perf --check`
    // sees it. Only passing runs land here — a degenerate measurement
    // must not become the baseline. Smoke and full measurements have
    // different sample budgets, so they keep separate ledger groups.
    let bench_name = if smoke {
        "decode_throughput/smoke"
    } else {
        "decode_throughput/full"
    };
    let mut rec = history::base_record(
        bench_name,
        seed,
        tinker_huffman::lut::DEFAULT_LUT_BITS as u64,
        t0.elapsed().as_nanos() as u64,
    );
    for m in &measured {
        rec.samples
            .insert(format!("{}_lut_mb_s", m.scheme), m.mb_per_s(m.lut_ns));
        rec.samples
            .insert(format!("{}_speedup_ratio", m.scheme), m.speedup());
    }
    // `cargo bench` runs with the package dir as cwd, so a relative
    // ledger path is re-anchored at the workspace root — the same file
    // the CLI writes.
    let ledger_file = ledger::ledger_path().map(|p| {
        if p.is_absolute() {
            p
        } else {
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(p)
        }
    });
    if let Some(path) = &ledger_file {
        if let Err(e) = ledger::append(path, &rec) {
            eprintln!("warning: ledger append to {} failed: {e}", path.display());
        }
    }
}
