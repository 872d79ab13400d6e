//! Whole-op ("Full") Huffman compression (paper §2.2).
//!
//! Every distinct 40-bit operation encoding is one symbol; the dictionary
//! can be large, but popular operations collapse dramatically ("the size
//! of the popular ADD instruction often went down from 40 to 6 bits, and
//! none of the codes exceed the original op size"). This scheme gives the
//! best compression of the study (≈30% of original) at the price of the
//! largest decoder — the tradeoff at the heart of Figures 5, 10 and 13.

use super::{BlockDecodeError, CompressError, Scheme, SchemeOutput, SymbolCodec};
use crate::encoded::{DecoderCost, EncodedProgram, SchemeKind};
use tepic_isa::{Program, OP_BITS};
use tinker_huffman::{BitWriter, CodeBook, DecoderComplexity, Dictionary, LutDecoder};

/// Whole-op Huffman scheme.
#[derive(Debug, Clone, Copy)]
pub struct FullScheme {
    /// Maximum Huffman code length (the paper's bounded-Huffman /
    /// strength-reduction escape keeps codes fetchable).
    pub max_code_len: u8,
}

impl Default for FullScheme {
    fn default() -> FullScheme {
        FullScheme { max_code_len: 24 }
    }
}

struct FullCodec {
    lut: LutDecoder,
    values: Vec<u64>,
}

impl SymbolCodec for FullCodec {
    fn tables(&self) -> &[LutDecoder] {
        std::slice::from_ref(&self.lut)
    }

    fn num_symbols(&self, num_ops: usize) -> usize {
        num_ops
    }

    fn table_of(&self, _i: usize, _num_ops: usize) -> u32 {
        0
    }

    fn assemble(&self, syms: &[u32], _num_ops: usize) -> Result<Vec<u64>, BlockDecodeError> {
        let mut out = Vec::with_capacity(syms.len());
        for &sym in syms {
            let word = self
                .values
                .get(sym as usize)
                .ok_or(BlockDecodeError::BadValue { field: "op symbol" })?;
            out.push(*word);
        }
        Ok(out)
    }

    fn tables_image(&self) -> Vec<u8> {
        let mut img = self.lut.table_image();
        for v in &self.values {
            img.extend_from_slice(&v.to_le_bytes());
        }
        img
    }
}

impl Scheme for FullScheme {
    fn name(&self) -> String {
        "full".to_string()
    }

    fn compress(&self, program: &Program) -> Result<SchemeOutput, CompressError> {
        if program.num_ops() == 0 {
            return Err(CompressError::EmptyProgram);
        }
        let words = program.op_words();
        let dict: Dictionary<u64> = words.iter().copied().collect();
        let book = CodeBook::bounded_from_freqs(dict.freqs(), self.max_code_len)?;

        let mut w = BitWriter::new();
        let mut block_start = Vec::with_capacity(program.num_blocks());
        let mut block_bytes = Vec::with_capacity(program.num_blocks());
        for b in 0..program.num_blocks() {
            w.align_byte();
            let start = w.bit_len() / 8;
            block_start.push(start);
            for op in program.block_ops(b) {
                let sym = dict.id_of(&op.encode()).ok_or(CompressError::Integrity {
                    detail: "op word missing from dictionary built over the same program",
                })?;
                book.try_encode_into(sym, &mut w)?;
            }
            let end = w.bit_len().div_ceil(8);
            block_bytes.push((end - start) as u32);
        }

        let model = DecoderComplexity {
            n: book.max_len() as u32,
            k: book.num_coded(),
            m: OP_BITS,
        };
        let image = EncodedProgram {
            kind: SchemeKind::Full,
            bytes: w.into_bytes(),
            block_start,
            block_bytes,
            decoder: DecoderCost::Huffman(vec![model]),
        };
        let codec = FullCodec {
            lut: book.lut_decoder(),
            values: (0..dict.len() as u32).map(|i| *dict.value_of(i)).collect(),
        };
        Ok(SchemeOutput {
            image,
            codec: Box::new(codec),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil::{sample_program, tiny_program};
    use crate::schemes::{byte::ByteScheme, stream::StreamScheme};

    #[test]
    fn round_trips() {
        let p = sample_program();
        let out = FullScheme::default().compress(&p).unwrap();
        assert!(out.verify_roundtrip(&p));
        assert!(out.image.check_layout());
    }

    #[test]
    fn best_compression_of_the_huffman_family() {
        // Figure 5's headline: Full beats byte-wise and both stream
        // configurations.
        let p = sample_program();
        let full = FullScheme::default()
            .compress(&p)
            .unwrap()
            .image
            .total_bytes();
        let byte = ByteScheme::default()
            .compress(&p)
            .unwrap()
            .image
            .total_bytes();
        let stream = StreamScheme::named("stream")
            .unwrap()
            .compress(&p)
            .unwrap()
            .image
            .total_bytes();
        let stream1 = StreamScheme::named("stream_1")
            .unwrap()
            .compress(&p)
            .unwrap()
            .image
            .total_bytes();
        assert!(full < byte, "full {full} vs byte {byte}");
        assert!(full < stream, "full {full} vs stream {stream}");
        assert!(full < stream1, "full {full} vs stream_1 {stream1}");
    }

    #[test]
    fn largest_decoder_of_the_huffman_family() {
        // Figure 10's headline: the Full decoder dwarfs the byte decoder.
        let p = sample_program();
        let full = FullScheme::default()
            .compress(&p)
            .unwrap()
            .image
            .decoder
            .transistors();
        let byte = ByteScheme::default()
            .compress(&p)
            .unwrap()
            .image
            .decoder
            .transistors();
        assert!(full > byte, "full decoder {full} should exceed byte {byte}");
    }

    #[test]
    fn no_code_exceeds_original_op_size() {
        // Paper: "none of the codes exceed the original op size."
        let p = sample_program();
        let words = p.op_words();
        let dict: Dictionary<u64> = words.iter().copied().collect();
        let book = CodeBook::bounded_from_freqs(dict.freqs(), 24).unwrap();
        for s in 0..dict.len() as u32 {
            assert!(book.len_of(s) as u32 <= OP_BITS);
        }
    }

    #[test]
    fn popular_ops_get_short_codes() {
        let p = sample_program();
        let words = p.op_words();
        let dict: Dictionary<u64> = words.iter().copied().collect();
        let book = CodeBook::bounded_from_freqs(dict.freqs(), 24).unwrap();
        let (max_sym, _) = dict
            .freqs()
            .iter()
            .enumerate()
            .max_by_key(|(_, &f)| f)
            .unwrap();
        assert!(
            book.len_of(max_sym as u32) <= 8,
            "most frequent op should get a short code, got {}",
            book.len_of(max_sym as u32)
        );
    }

    #[test]
    fn tiny_program_round_trips() {
        let p = tiny_program();
        let out = FullScheme::default().compress(&p).unwrap();
        assert!(out.verify_roundtrip(&p));
    }
}
