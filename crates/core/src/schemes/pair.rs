//! Op-pair ("digram") Huffman — an extension probing the paper's §2.2
//! observation that "combining two or more compression strategies does
//! not yield better compression, since we are approaching the entropy
//! limit of the program".
//!
//! Symbols are *pairs* of consecutive operations within a block (a
//! trailing unpaired op uses a separate singles table). Joint coding can
//! only improve on per-op entropy by whatever sequential correlation
//! exists — and it pays with a dictionary whose size (and decoder)
//! roughly squares. The `ext_entropy_limit` experiment quantifies both
//! sides.

use super::{BlockDecodeError, CompressError, Scheme, SchemeOutput, SymbolCodec};
use crate::encoded::{DecoderCost, EncodedProgram, SchemeKind};
use tepic_isa::{Program, OP_BITS};
use tinker_huffman::{BitWriter, CodeBook, DecoderComplexity, Dictionary, LutDecoder};

/// Whole-op-pair Huffman scheme.
#[derive(Debug, Clone, Copy)]
pub struct PairScheme {
    /// Maximum Huffman code length for both tables.
    pub max_code_len: u8,
}

impl Default for PairScheme {
    fn default() -> PairScheme {
        PairScheme { max_code_len: 28 }
    }
}

struct PairCodec {
    /// Table 0 decodes pairs; table 1 (absent when no block has an odd
    /// length) decodes the trailing single.
    tables: Vec<LutDecoder>,
    pair_values: Vec<(u64, u64)>,
    single_values: Vec<u64>,
}

impl SymbolCodec for PairCodec {
    fn tables(&self) -> &[LutDecoder] {
        &self.tables
    }

    fn num_symbols(&self, num_ops: usize) -> usize {
        num_ops / 2 + num_ops % 2
    }

    fn table_of(&self, i: usize, num_ops: usize) -> u32 {
        u32::from(i >= num_ops / 2)
    }

    fn assemble(&self, syms: &[u32], num_ops: usize) -> Result<Vec<u64>, BlockDecodeError> {
        let pairs = num_ops / 2;
        let mut out = Vec::with_capacity(num_ops);
        for (i, &sym) in syms.iter().enumerate() {
            if i < pairs {
                let (a, c) =
                    *self
                        .pair_values
                        .get(sym as usize)
                        .ok_or(BlockDecodeError::BadValue {
                            field: "pair symbol",
                        })?;
                out.push(a);
                out.push(c);
            } else {
                let v = self
                    .single_values
                    .get(sym as usize)
                    .ok_or(BlockDecodeError::BadValue {
                        field: "single symbol",
                    })?;
                out.push(*v);
            }
        }
        Ok(out)
    }

    fn tables_image(&self) -> Vec<u8> {
        let mut img = self.tables[0].table_image();
        for (a, c) in &self.pair_values {
            img.extend_from_slice(&a.to_le_bytes());
            img.extend_from_slice(&c.to_le_bytes());
        }
        if let Some(dec) = self.tables.get(1) {
            img.extend_from_slice(&dec.table_image());
            for v in &self.single_values {
                img.extend_from_slice(&v.to_le_bytes());
            }
        }
        img
    }
}

impl Scheme for PairScheme {
    fn name(&self) -> String {
        "pair".to_string()
    }

    fn compress(&self, program: &Program) -> Result<SchemeOutput, CompressError> {
        if program.num_ops() == 0 {
            return Err(CompressError::EmptyProgram);
        }
        // Histograms: pairs per block (non-overlapping), plus a singles
        // table for odd trailing ops.
        let mut pairs: Dictionary<(u64, u64)> = Dictionary::new();
        let mut singles: Dictionary<u64> = Dictionary::new();
        for b in 0..program.num_blocks() {
            let words: Vec<u64> = program.block_ops(b).iter().map(|o| o.encode()).collect();
            let mut i = 0;
            while i + 1 < words.len() {
                pairs.record((words[i], words[i + 1]));
                i += 2;
            }
            if i < words.len() {
                singles.record(words[i]);
            }
        }
        let pair_book = CodeBook::bounded_from_freqs(pairs.freqs(), self.max_code_len)?;
        let single_book = if singles.is_empty() {
            None
        } else {
            Some(CodeBook::bounded_from_freqs(
                singles.freqs(),
                self.max_code_len,
            )?)
        };

        let mut w = BitWriter::new();
        let mut block_start = Vec::with_capacity(program.num_blocks());
        let mut block_bytes = Vec::with_capacity(program.num_blocks());
        for b in 0..program.num_blocks() {
            w.align_byte();
            let start = w.bit_len() / 8;
            block_start.push(start);
            let words: Vec<u64> = program.block_ops(b).iter().map(|o| o.encode()).collect();
            let mut i = 0;
            while i + 1 < words.len() {
                let sym =
                    pairs
                        .id_of(&(words[i], words[i + 1]))
                        .ok_or(CompressError::Integrity {
                            detail: "op pair missing from dictionary",
                        })?;
                pair_book.try_encode_into(sym, &mut w)?;
                i += 2;
            }
            if i < words.len() {
                let book = single_book.as_ref().ok_or(CompressError::Integrity {
                    detail: "odd-length block but no singles table",
                })?;
                let sym = singles.id_of(&words[i]).ok_or(CompressError::Integrity {
                    detail: "trailing op missing from singles dictionary",
                })?;
                book.try_encode_into(sym, &mut w)?;
            }
            let end = w.bit_len().div_ceil(8);
            block_bytes.push((end - start) as u32);
        }

        let mut decoders = vec![DecoderComplexity {
            n: pair_book.max_len() as u32,
            k: pair_book.num_coded(),
            m: 2 * OP_BITS,
        }];
        if let Some(sb) = &single_book {
            decoders.push(DecoderComplexity {
                n: sb.max_len() as u32,
                k: sb.num_coded(),
                m: OP_BITS,
            });
        }
        let image = EncodedProgram {
            kind: SchemeKind::Stream("pair".to_string()),
            bytes: w.into_bytes(),
            block_start,
            block_bytes,
            decoder: DecoderCost::Huffman(decoders),
        };
        let mut tables = vec![pair_book.lut_decoder()];
        tables.extend(single_book.as_ref().map(CodeBook::lut_decoder));
        let codec = PairCodec {
            tables,
            pair_values: (0..pairs.len() as u32)
                .map(|i| *pairs.value_of(i))
                .collect(),
            single_values: (0..singles.len() as u32)
                .map(|i| *singles.value_of(i))
                .collect(),
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
    use crate::schemes::full::FullScheme;
    use crate::schemes::testutil::{sample_program, tiny_program};

    #[test]
    fn round_trips() {
        for p in [sample_program(), tiny_program()] {
            let out = PairScheme::default().compress(&p).unwrap();
            assert!(out.image.check_layout());
            assert!(out.verify_roundtrip(&p));
        }
    }

    /// Bytes of dictionary storage a Huffman decoder must hold.
    fn dict_bytes(out: &SchemeOutput) -> usize {
        match &out.image.decoder {
            DecoderCost::Huffman(parts) => {
                parts.iter().map(|p| p.k * (p.m as usize).div_ceil(8)).sum()
            }
            _ => 0,
        }
    }

    #[test]
    fn entropy_limit_shape() {
        // The §2.2 claim, stated honestly: pairing shrinks the *image*
        // by memorizing op sequences, but the dictionary grows faster
        // than the image shrinks — the total (image + decoder
        // dictionary) gets worse, because per-op coding already sits
        // near the program's entropy.

        let p = sample_program();
        let full = FullScheme::default().compress(&p).unwrap();
        let pair = PairScheme::default().compress(&p).unwrap();
        let full_total = full.image.total_bytes() + dict_bytes(&full);
        let pair_total = pair.image.total_bytes() + dict_bytes(&pair);
        assert!(
            pair_total > full_total,
            "pair total {pair_total} must exceed full total {full_total}"
        );
        assert!(
            dict_bytes(&pair) > dict_bytes(&full),
            "pair dictionary storage ({} B) must exceed full's ({} B)",
            dict_bytes(&pair),
            dict_bytes(&full)
        );
    }
}
