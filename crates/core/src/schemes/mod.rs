//! The compression schemes (paper §2.2) and the tailored encoder (§2.3).
//!
//! Each scheme implements [`Scheme`], producing a [`SchemeOutput`] whose
//! [`SchemeOutput::verify_roundtrip`] proves losslessness against the
//! original program. The scheme registry ([`registry`], [`lookup`]) is
//! the one place that names every scheme, builds it, and pairs it with
//! the fetch organization that executes its images; the Figure-5 matrix
//! ([`MATRIX`]) drives the Figure-5/7/10 experiments.

pub mod base;
pub mod byte;
pub mod full;
pub mod pair;
pub mod stream;
pub mod tailored;

use crate::encoded::EncodedProgram;
use crate::integrity::{crc32, IntegrityError};
use std::fmt;
use tepic_isa::Program;
use tinker_huffman::{BitReader, DecodeCounters, DecodeError, LutDecoder};

/// Compression failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// The program has no code.
    EmptyProgram,
    /// Huffman construction failed (propagated).
    Huffman(tinker_huffman::HuffmanError),
    /// A field value exceeded the tailored width computed for it — an
    /// internal invariant violation.
    TailoredOverflow { field: &'static str },
    /// A symbol recorded during the frequency scan was missing from the
    /// dictionary at encode time — the two passes disagree, so the
    /// image's decode tables cannot be trusted.
    Integrity { detail: &'static str },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::EmptyProgram => write!(f, "program has no code"),
            CompressError::Huffman(e) => write!(f, "huffman failure: {e}"),
            CompressError::TailoredOverflow { field } => {
                write!(f, "tailored width overflow in field {field}")
            }
            CompressError::Integrity { detail } => {
                write!(f, "compression integrity violation: {detail}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

impl From<tinker_huffman::HuffmanError> for CompressError {
    fn from(e: tinker_huffman::HuffmanError) -> Self {
        CompressError::Huffman(e)
    }
}

/// Why decoding one block of an encoded image failed. Errors never
/// escape the block that raised them: every block starts byte-aligned,
/// so the decoder resynchronizes at the next block boundary — the
/// paper's atomic fetch unit is also the corruption-containment unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDecodeError {
    /// A Huffman codeword was corrupt or truncated.
    Code(DecodeError),
    /// Fixed-width fields ran past the end of the block's bytes.
    Eos,
    /// A decoded field value is outside its dense table (tailored) or
    /// otherwise impossible.
    BadValue { field: &'static str },
    /// An integrity check rejected the block before decode.
    Integrity(IntegrityError),
}

impl fmt::Display for BlockDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockDecodeError::Code(e) => write!(f, "corrupt codeword: {e}"),
            BlockDecodeError::Eos => write!(f, "block ended mid-operation"),
            BlockDecodeError::BadValue { field } => {
                write!(f, "decoded value out of range for field {field}")
            }
            BlockDecodeError::Integrity(e) => write!(f, "integrity check failed: {e}"),
        }
    }
}

impl std::error::Error for BlockDecodeError {}

impl From<DecodeError> for BlockDecodeError {
    fn from(e: DecodeError) -> Self {
        BlockDecodeError::Code(e)
    }
}

impl From<IntegrityError> for BlockDecodeError {
    fn from(e: IntegrityError) -> Self {
        BlockDecodeError::Integrity(e)
    }
}

/// A scheme's full output: the image plus the codec needed to decode it
/// (in hardware this is the PLA contents; here it also powers the
/// round-trip verification).
pub struct SchemeOutput {
    /// The encoded image.
    pub image: EncodedProgram,
    /// Block decoder: given the image bytes and a block id, reproduce the
    /// original 40-bit words of that block.
    pub codec: Box<dyn BlockCodec>,
}

impl fmt::Debug for SchemeOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeOutput")
            .field("image", &self.image)
            .finish_non_exhaustive()
    }
}

impl SchemeOutput {
    /// Decodes every block and compares with the original op words.
    pub fn verify_roundtrip(&self, program: &Program) -> bool {
        for b in 0..program.num_blocks() {
            let expect: Vec<u64> = program.block_ops(b).iter().map(|o| o.encode()).collect();
            match self.codec.decode_block(&self.image, b, expect.len()) {
                Ok(words) if words == expect => {}
                _ => return false,
            }
        }
        true
    }

    /// CRC32 of the codec's serialized decode tables — recorded at
    /// compression time, re-checked by the fetch path before trusting
    /// the dictionary.
    pub fn dictionary_crc(&self) -> u32 {
        crc32(&self.codec.dictionary_image())
    }
}

/// Decoding interface over an [`EncodedProgram`]. Codecs are immutable
/// decode tables, so the trait requires `Send + Sync`: a serving layer
/// can memoize one codec per image and share it across worker threads.
pub trait BlockCodec: Send + Sync {
    /// Decodes block `b` (which holds `num_ops` operations) back to its
    /// original 40-bit words.
    ///
    /// # Errors
    ///
    /// [`BlockDecodeError`] on corrupt or truncated input; the failure
    /// is contained to this block (blocks decode independently from
    /// byte-aligned starts).
    fn decode_block(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError>;

    /// [`BlockCodec::decode_block`] with decode-effort telemetry folded
    /// into `counts`: symbols decoded, modelled stall bits (one Figure-9
    /// tree level per bit) and first-level LUT overflows. The default
    /// decodes without counting — correct for codecs with no serial
    /// Huffman machinery (Base's raw words, Tailored's fixed-width
    /// fields resolve in parallel, stalling nothing).
    ///
    /// # Errors
    ///
    /// Exactly the errors [`BlockCodec::decode_block`] produces.
    fn decode_block_counted(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        let _ = counts;
        self.decode_block(image, b, num_ops)
    }

    /// [`BlockCodec::decode_block`] forced down the bit-serial
    /// *reference* decode path, bypassing any LUT fast-path machinery.
    /// This is the graceful-degradation fallback the fetch engine takes
    /// when the fast path errors (DESIGN.md §13): the reference decoder
    /// shares no lookup tables with the LUT, so a corrupted table
    /// cannot poison both. Codecs with no LUT (Base, Tailored) keep the
    /// default, which is just [`BlockCodec::decode_block`].
    ///
    /// # Errors
    ///
    /// [`BlockDecodeError`] when the underlying bytes are themselves
    /// corrupt — then both paths fail and the block is genuinely lost.
    fn decode_block_reference(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        self.decode_block(image, b, num_ops)
    }

    /// Serializes the codec's decode tables (Huffman dictionaries,
    /// dense renumberings) into a deterministic byte image, the unit the
    /// dictionary CRC protects. Empty for codecs with no tables (Base).
    fn dictionary_image(&self) -> Vec<u8>;
}

/// Decodes blocks `0..ops_per_block.len()` of an image — the whole
/// program when `ops_per_block[b]` is block `b`'s op count — one
/// [`BlockCodec::decode_block_counted`] call per block, in block order.
pub fn decode_blocks(
    codec: &dyn BlockCodec,
    image: &EncodedProgram,
    ops_per_block: &[usize],
    counts: &mut DecodeCounters,
) -> Vec<Result<Vec<u64>, BlockDecodeError>> {
    ops_per_block
        .iter()
        .enumerate()
        .map(|(b, &num_ops)| codec.decode_block_counted(image, b, num_ops, counts))
        .collect()
}

/// The shared shape of every Huffman block codec: a block is
/// `num_symbols(num_ops)` codewords, codeword `i` decoded with
/// `tables()[table_of(i)]`, and the symbol sequence reassembled into op
/// words by `assemble`. The blanket [`BlockCodec`] impl below derives
/// the whole `decode_block*` triplet from these five hooks, so the
/// byte/stream/full/pair codecs carry no per-scheme decode loops.
pub(crate) trait SymbolCodec: Send + Sync {
    /// The decode tables, indexed by [`SymbolCodec::table_of`].
    fn tables(&self) -> &[LutDecoder];
    /// Codewords encoding a block of `num_ops` operations.
    fn num_symbols(&self, num_ops: usize) -> usize;
    /// Table decoding codeword `i`. May name a table the codec was
    /// built without (pair without a singles book) — decoding then
    /// fails with [`BlockDecodeError::BadValue`].
    fn table_of(&self, i: usize, num_ops: usize) -> u32;
    /// Reassembles the decoded symbols into the block's op words.
    fn assemble(&self, syms: &[u32], num_ops: usize) -> Result<Vec<u64>, BlockDecodeError>;
    /// The codec's serialized decode tables ([`BlockCodec::dictionary_image`]).
    fn tables_image(&self) -> Vec<u8>;
}

/// The one decode loop behind every Huffman codec's `decode_block` /
/// `decode_block_counted` / `decode_block_reference`: whole-block
/// `decode_n` when a single table covers the block, per-symbol over
/// `table_of` otherwise; `reference` forces the bit-serial reference
/// decoder (the graceful-degradation path of DESIGN.md §13).
fn decode_huffman_block<T: SymbolCodec + ?Sized>(
    codec: &T,
    image: &EncodedProgram,
    b: usize,
    num_ops: usize,
    counts: &mut DecodeCounters,
    reference: bool,
) -> Result<Vec<u64>, BlockDecodeError> {
    let table = |t: u32| {
        codec
            .tables()
            .get(t as usize)
            .ok_or(BlockDecodeError::BadValue {
                field: "decode table",
            })
    };
    let n = codec.num_symbols(num_ops);
    let mut r = BitReader::at_bit(&image.bytes, image.block_start[b] * 8);
    let mut schedule = (0..n).map(|i| codec.table_of(i, num_ops));
    let first = schedule.next().unwrap_or(0);
    let syms = if schedule.all(|t| t == first) {
        let tab = table(first)?;
        if reference {
            tab.reference().decode_n(&mut r, n)?
        } else {
            tab.decode_n_counted(&mut r, n, counts)?
        }
    } else {
        let mut syms = Vec::with_capacity(n);
        for i in 0..n {
            let tab = table(codec.table_of(i, num_ops))?;
            let sym = if reference {
                tab.reference().decode_counted(&mut r, counts)?
            } else {
                tab.decode_counted(&mut r, counts)?
            };
            syms.push(sym);
        }
        syms
    };
    codec.assemble(&syms, num_ops)
}

impl<T: SymbolCodec> BlockCodec for T {
    fn decode_block(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_huffman_block(
            self,
            image,
            b,
            num_ops,
            &mut DecodeCounters::default(),
            false,
        )
    }

    fn decode_block_counted(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_huffman_block(self, image, b, num_ops, counts, false)
    }

    fn decode_block_reference(
        &self,
        image: &EncodedProgram,
        b: usize,
        num_ops: usize,
    ) -> Result<Vec<u64>, BlockDecodeError> {
        decode_huffman_block(
            self,
            image,
            b,
            num_ops,
            &mut DecodeCounters::default(),
            true,
        )
    }

    fn dictionary_image(&self) -> Vec<u8> {
        self.tables_image()
    }
}

/// A compression scheme.
pub trait Scheme {
    /// Short name as used in the paper's figures (`byte`, `stream`,
    /// `stream_1`, `full`, `tailored`, `base`).
    fn name(&self) -> String;

    /// Compresses a program.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError`] when the program cannot be encoded.
    fn compress(&self, program: &Program) -> Result<SchemeOutput, CompressError>;
}

/// Which fetch organization executes an image — the columns of the
/// paper's Table 1, plus the Ideal bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingClass {
    /// Uncompressed baseline (banked cache, predictor, no translation).
    Base,
    /// Tailored ISA (extra miss-path stage, translation via ATB).
    Tailored,
    /// Huffman-compressed code cached compressed (decompressor on the
    /// hit path behind the L0 buffer, translation via ATB).
    Compressed,
    /// Perfect cache and predictor: one MultiOp per cycle.
    Ideal,
}

/// One registered scheme: its figure name, its constructor, and the
/// fetch organization its images run on.
#[derive(Debug, Clone, Copy)]
pub struct SchemeEntry {
    /// Figure name; equals the built scheme's [`Scheme::name`].
    pub name: &'static str,
    /// Fetch organization; only [`EncodingClass::Compressed`] images
    /// are decoded on the hit path.
    pub class: EncodingClass,
    build: fn(&'static str) -> Box<dyn Scheme>,
}

impl SchemeEntry {
    /// Instantiates the scheme.
    pub fn build(&self) -> Box<dyn Scheme> {
        (self.build)(self.name)
    }
}

const fn stream_entry(name: &'static str) -> SchemeEntry {
    SchemeEntry {
        name,
        class: EncodingClass::Compressed,
        build: |name| Box::new(stream::StreamScheme::named(name).expect("builtin config")),
    }
}

/// The uncompressed baseline.
pub const BASE: SchemeEntry = SchemeEntry {
    name: "base",
    class: EncodingClass::Base,
    build: |_| Box::new(base::BaseScheme),
};
/// Byte-wise Huffman.
pub const BYTE: SchemeEntry = SchemeEntry {
    name: "byte",
    class: EncodingClass::Compressed,
    build: |_| Box::new(byte::ByteScheme::default()),
};
/// Stream Huffman, finest split (smallest decoder).
pub const STREAM: SchemeEntry = stream_entry("stream");
/// Stream Huffman, two 20-bit halves (smallest stream code).
pub const STREAM_1: SchemeEntry = stream_entry("stream_1");
/// Whole-op Huffman.
pub const FULL: SchemeEntry = SchemeEntry {
    name: "full",
    class: EncodingClass::Compressed,
    build: |_| Box::new(full::FullScheme::default()),
};
/// Tailored encoding.
pub const TAILORED: SchemeEntry = SchemeEntry {
    name: "tailored",
    class: EncodingClass::Tailored,
    build: |_| Box::new(tailored::TailoredScheme),
};

/// The scheme axis of the paper's Figure 5, in figure order: byte-wise,
/// the two best stream configurations, Full, and Tailored.
pub const MATRIX: [SchemeEntry; 5] = [BYTE, STREAM, STREAM_1, FULL, TAILORED];

/// The names of [`MATRIX`], in figure order.
pub const MATRIX_SCHEMES: [&str; MATRIX.len()] = {
    let mut names = [""; MATRIX.len()];
    let mut i = 0;
    while i < MATRIX.len() {
        names[i] = MATRIX[i].name;
        i += 1;
    }
    names
};

/// Every registered scheme: [`BASE`], the [`MATRIX`], then the
/// remaining [`stream::StreamConfig::ALL`] configurations.
pub fn registry() -> impl Iterator<Item = SchemeEntry> {
    let extra_streams = stream::StreamConfig::ALL
        .iter()
        .filter(|c| !MATRIX_SCHEMES.contains(&c.name))
        .map(|c| stream_entry(c.name));
    std::iter::once(BASE).chain(MATRIX).chain(extra_streams)
}

/// The registry entry for a figure name.
pub fn lookup(name: &str) -> Option<SchemeEntry> {
    registry().find(|e| e.name == name)
}

/// Instantiates a scheme by its figure name (including `base`).
pub fn scheme_by_name(name: &str) -> Option<Box<dyn Scheme>> {
    lookup(name).map(|e| e.build())
}

/// The [`MATRIX`] schemes, built.
pub fn standard_schemes() -> Vec<Box<dyn Scheme>> {
    MATRIX.iter().map(SchemeEntry::build).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use tepic_isa::Program;

    /// A mid-sized program exercising every format: loops, calls,
    /// floats, byte/word memory, recursion, string scanning, sorting and
    /// hashing. Large enough (hundreds of ops) that the compression
    /// shapes of the paper's figures emerge.
    pub fn sample_program() -> Program {
        let src = r#"
            global acc[64];
            global heap[128];
            global hist[64];
            bglobal text[64] = "the quick brown fox jumps over the lazy dog again";
            fglobal coefs[8] = { 0.5, 0.25, 1.5, -2.0, 3.25, -0.75, 0.125, 9.5 };
            fn main() {
                var i; var s = 0;
                for (i = 0; i < 64; i = i + 1) { acc[i] = i * i - 3; }
                for (i = 0; i < 50; i = i + 1) { s = s + text[i]; }
                print(s);
                print(fib(10));
                fvar x = 0.0;
                for (i = 0; i < 8; i = i + 1) { x = x + coefs[i]; }
                print(int(x * 100.0));
                fill(37);
                sort(40);
                print(heap[0]); print(heap[39]);
                print(hashtext(50));
                print(gcd(462, 1071));
                classify(25);
                print(hist[1] + hist[2] * 10);
            }
            fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            fn fill(seed) {
                var i; var v = seed;
                for (i = 0; i < 40; i = i + 1) {
                    v = (v * 1103 + 12345) % 2048;
                    heap[i] = v;
                }
                return 0;
            }
            fn sort(n) {
                var i; var j; var t;
                for (i = 0; i < n; i = i + 1) {
                    for (j = 0; j < n - 1 - i; j = j + 1) {
                        if (heap[j] > heap[j + 1]) {
                            t = heap[j]; heap[j] = heap[j + 1]; heap[j + 1] = t;
                        }
                    }
                }
                return 0;
            }
            fn hashtext(n) {
                var i; var h = 5381;
                for (i = 0; i < n; i = i + 1) {
                    h = ((h << 5) + h) ^ text[i];
                    h = h & 0xFFFFFF;
                }
                return h;
            }
            fn gcd(a, b) {
                while (b != 0) { var t = b; b = a % b; a = t; }
                return a;
            }
            fn classify(n) {
                var i;
                for (i = 0; i < n; i = i + 1) {
                    var v = heap[i];
                    if (v < 100) { hist[0] = hist[0] + 1; }
                    else if (v < 500) { hist[1] = hist[1] + 1; }
                    else if (v < 1000) { hist[2] = hist[2] + 1; }
                    else { hist[3] = hist[3] + 1; }
                }
                return 0;
            }
        "#;
        lego::compile(src, &lego::Options::default()).expect("sample compiles")
    }

    /// A tiny program (edge case: few distinct symbols).
    pub fn tiny_program() -> Program {
        lego::compile("fn main() { print(1); }", &lego::Options::default()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_lineup_matches_figure5() {
        assert_eq!(
            MATRIX_SCHEMES,
            ["byte", "stream", "stream_1", "full", "tailored"]
        );
        let names: Vec<String> = standard_schemes().iter().map(|s| s.name()).collect();
        assert_eq!(names, MATRIX_SCHEMES);

        // Every entry builds the scheme it names, which round-trips the
        // sample and tiny programs into images tagged with that name,
        // and sits in its Table-1 column.
        let programs = [testutil::sample_program(), testutil::tiny_program()];
        for entry in registry() {
            let scheme = entry.build();
            assert_eq!(scheme.name(), entry.name);
            for p in &programs {
                let out = scheme
                    .compress(p)
                    .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
                assert_eq!(out.image.kind.to_string(), entry.name);
                assert!(out.image.check_layout(), "{} layout broken", entry.name);
                assert!(out.verify_roundtrip(p), "{} round trip failed", entry.name);
            }
            let class = match entry.name {
                "base" => EncodingClass::Base,
                "tailored" => EncodingClass::Tailored,
                _ => EncodingClass::Compressed,
            };
            assert_eq!(entry.class, class, "{}", entry.name);
        }
        for config in &stream::StreamConfig::ALL {
            let entry = lookup(config.name).expect("every stream config resolves");
            assert_eq!(entry.class, EncodingClass::Compressed);
        }
        let names: std::collections::HashSet<&str> = registry().map(|e| e.name).collect();
        assert_eq!(names.len(), registry().count(), "names are unique");
        assert!(lookup("pair").is_none(), "pair is unregistered");
        assert!(lookup("no-such-scheme").is_none());
    }
}
