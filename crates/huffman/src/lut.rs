//! Two-level table-driven canonical Huffman decoding.
//!
//! [`LutDecoder`] is the software fast path over the same canonical
//! code space as [`CanonicalDecoder`]: a direct-indexed first-level
//! table of [`DEFAULT_LUT_BITS`] bits resolves every short code (one
//! peek, one table load, one consume), while codes longer than the
//! table index — rare by construction, since Huffman assigns long codes
//! to rare symbols — fall back to the bit-serial `first_code` walk of
//! the reference decoder.
//!
//! The decoder is *observationally identical* to [`CanonicalDecoder`]:
//! the same symbols in the same order, and on corrupt or truncated
//! input the same [`DecodeError`] variant at the same bit position.
//! This is guaranteed by construction — every table entry is
//! precomputed by running the reference decode loop over its index
//! (see `CanonicalDecoder::classify_prefix`) — and enforced by the
//! differential proptests in `tests/proptests.rs`. The reference
//! decoder remains the model of the paper's Figure-9 bit-per-level
//! hardware; this table is how the *simulator* gets through compressed
//! images quickly, not a change to the modelled machine.

use crate::bitio::BitReader;
use crate::code::CodeBook;
use crate::decode::{CanonicalDecoder, DecodeCounters, DecodeError, PrefixClass};

/// Default first-level table index width, in bits. 2^11 entries cover
/// every code the byte scheme can emit (bound 10) and the popular head
/// of every other scheme's book; the table is 16 KiB of entries —
/// comfortably cache-resident.
pub const DEFAULT_LUT_BITS: u32 = 11;

/// One first-level table entry: the precomputed outcome of feeding the
/// entry's index bits to the reference decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// A code of length `len` matches: consume `len` bits, emit `sym`.
    Sym { sym: u32, len: u8 },
    /// The prefix dies after `depth` bits: consume them and raise
    /// [`DecodeError::InvalidCode`].
    Invalid { depth: u8 },
    /// `max_len` (= `depth`) bits match nothing: consume them and raise
    /// [`DecodeError::LengthOverflow`] (incomplete hand-built books).
    Overflow { depth: u8 },
    /// The codeword extends beyond the table index: take the slow walk.
    Long,
}

/// A two-level lookup-table canonical Huffman decoder.
///
/// Built from the same [`CodeBook`] as the reference
/// [`CanonicalDecoder`], which it embeds both as the long-code fallback
/// and as the near-end-of-stream path (where full lookahead is not
/// available and per-bit consumption reproduces the exact error
/// positions).
#[derive(Debug, Clone)]
pub struct LutDecoder {
    /// First-level index width in bits (1..=16, capped at `max_len`).
    lut_bits: u32,
    /// Direct-indexed first level: `1 << lut_bits` entries.
    table: Vec<Entry>,
    /// The bit-serial reference decoder: long codes, short streams.
    reference: CanonicalDecoder,
}

impl LutDecoder {
    /// Builds the decoder with the default first-level width.
    pub fn new(book: &CodeBook) -> LutDecoder {
        LutDecoder::with_lut_bits(book, DEFAULT_LUT_BITS)
    }

    /// Builds the decoder with an explicit first-level width (clamped
    /// to 1..=16 and to the book's maximum code length).
    pub fn with_lut_bits(book: &CodeBook, lut_bits: u32) -> LutDecoder {
        let reference = CanonicalDecoder::new(book);
        let lut_bits = lut_bits.clamp(1, 16).min(reference.max_len().max(1) as u32);
        let table = (0u64..1 << lut_bits)
            .map(|prefix| match reference.classify_prefix(prefix, lut_bits) {
                PrefixClass::Sym { sym, len } => Entry::Sym { sym, len },
                PrefixClass::Invalid { depth } => Entry::Invalid { depth },
                PrefixClass::Overflow { depth } => Entry::Overflow { depth },
                PrefixClass::Long => Entry::Long,
            })
            .collect();
        LutDecoder {
            lut_bits,
            table,
            reference,
        }
    }

    /// Decodes one symbol from the reader.
    ///
    /// # Errors
    ///
    /// Exactly the [`DecodeError`]s (variant and `at_bit`) that
    /// [`CanonicalDecoder::decode`] would produce at this position.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
        if r.available() < self.lut_bits {
            r.refill();
        }
        if r.available() >= self.lut_bits {
            match self.table[r.peek(self.lut_bits) as usize] {
                Entry::Sym { sym, len } => {
                    r.consume(len as u32);
                    return Ok(sym);
                }
                Entry::Invalid { depth } => {
                    r.consume(depth as u32);
                    return Err(DecodeError::InvalidCode {
                        at_bit: r.bit_pos(),
                    });
                }
                Entry::Overflow { depth } => {
                    r.consume(depth as u32);
                    return Err(DecodeError::LengthOverflow {
                        at_bit: r.bit_pos(),
                    });
                }
                Entry::Long => {}
            }
        }
        self.decode_slow(r)
    }

    /// [`LutDecoder::decode`] with decode-effort telemetry folded into
    /// `counts` (see [`DecodeCounters`]). Behaviour — symbols, cursor
    /// positions and errors — is identical.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`LutDecoder::decode`] produces; the failing
    /// prefix's bits are still charged to `counts.stall_bits`.
    #[inline]
    pub fn decode_counted(
        &self,
        r: &mut BitReader<'_>,
        counts: &mut DecodeCounters,
    ) -> Result<u32, DecodeError> {
        if r.available() < self.lut_bits {
            r.refill();
        }
        if r.available() >= self.lut_bits {
            match self.table[r.peek(self.lut_bits) as usize] {
                Entry::Sym { sym, len } => {
                    r.consume(len as u32);
                    counts.symbols += 1;
                    counts.stall_bits += len as u64;
                    return Ok(sym);
                }
                Entry::Invalid { depth } => {
                    r.consume(depth as u32);
                    counts.stall_bits += depth as u64;
                    return Err(DecodeError::InvalidCode {
                        at_bit: r.bit_pos(),
                    });
                }
                Entry::Overflow { depth } => {
                    r.consume(depth as u32);
                    counts.stall_bits += depth as u64;
                    return Err(DecodeError::LengthOverflow {
                        at_bit: r.bit_pos(),
                    });
                }
                // Only a genuine table overflow counts as a fallback;
                // the short-stream path below never consulted the table.
                Entry::Long => counts.long_fallbacks += 1,
            }
        }
        let start = r.bit_pos();
        let res = self.decode_slow(r);
        counts.stall_bits += r.bit_pos() - start;
        if res.is_ok() {
            counts.symbols += 1;
        }
        res
    }

    /// The overflow path: codes longer than the table index, and
    /// streams with fewer than `lut_bits` bits left (where the
    /// reference's per-bit consumption pins the exact EOS position).
    #[cold]
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u32, DecodeError> {
        self.reference.decode(r)
    }

    /// Decodes exactly `n` symbols, failing on the first corrupt or
    /// truncated codeword.
    ///
    /// Equivalent to `n` calls of [`LutDecoder::decode`] but amortizes
    /// each accumulator refill over every short code it covers (~8
    /// symbols per refill at typical code lengths) — the throughput
    /// path the scheme codecs decode whole blocks with.
    pub fn decode_n(&self, r: &mut BitReader<'_>, n: usize) -> Result<Vec<u32>, DecodeError> {
        self.decode_n_counted(r, n, &mut DecodeCounters::default())
    }

    /// [`LutDecoder::decode_n`] with decode-effort telemetry: bits
    /// consumed (= modelled stall cycles), symbols decoded, and how many
    /// codewords overflowed the table into the bit-serial walk. The
    /// counters are plain `u64`s folded into `counts`; `decode_n` passes
    /// a throwaway instance, so the uncounted path pays nothing.
    ///
    /// # Errors
    ///
    /// Exactly the errors `n` calls of [`LutDecoder::decode`] would
    /// produce; the failing prefix's bits are still charged to
    /// `counts.stall_bits`.
    pub fn decode_n_counted(
        &self,
        r: &mut BitReader<'_>,
        n: usize,
        counts: &mut DecodeCounters,
    ) -> Result<Vec<u32>, DecodeError> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            r.refill();
            if r.available() < self.lut_bits {
                // Refill tops up to ≥57 > `lut_bits` bits away from the
                // buffer tail, so this is a genuinely short stream: the
                // one-symbol path pins the exact EOS behavior. (Not a
                // `Long` fallback — the table was never consulted.)
                let start = r.bit_pos();
                let res = self.decode(r);
                counts.stall_bits += r.bit_pos() - start;
                match res {
                    Ok(sym) => {
                        counts.symbols += 1;
                        out.push(sym);
                    }
                    Err(e) => return Err(e),
                }
                continue;
            }
            while out.len() < n && r.available() >= self.lut_bits {
                match self.table[r.peek(self.lut_bits) as usize] {
                    Entry::Sym { sym, len } => {
                        r.consume(len as u32);
                        counts.symbols += 1;
                        counts.stall_bits += len as u64;
                        out.push(sym);
                    }
                    Entry::Invalid { depth } => {
                        r.consume(depth as u32);
                        counts.stall_bits += depth as u64;
                        return Err(DecodeError::InvalidCode {
                            at_bit: r.bit_pos(),
                        });
                    }
                    Entry::Overflow { depth } => {
                        r.consume(depth as u32);
                        counts.stall_bits += depth as u64;
                        return Err(DecodeError::LengthOverflow {
                            at_bit: r.bit_pos(),
                        });
                    }
                    Entry::Long => {
                        counts.long_fallbacks += 1;
                        let start = r.bit_pos();
                        let res = self.decode_slow(r);
                        counts.stall_bits += r.bit_pos() - start;
                        match res {
                            Ok(sym) => {
                                counts.symbols += 1;
                                out.push(sym);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// First-level index width in bits.
    pub fn lut_bits(&self) -> u32 {
        self.lut_bits
    }

    /// Longest code length this decoder handles.
    pub fn max_len(&self) -> u8 {
        self.reference.max_len()
    }

    /// Dictionary size (`k` in the paper's complexity model).
    pub fn dictionary_size(&self) -> usize {
        self.reference.dictionary_size()
    }

    /// The embedded bit-serial reference decoder.
    pub fn reference(&self) -> &CanonicalDecoder {
        &self.reference
    }

    /// Serialized decode tables for integrity checking — byte-identical
    /// to [`CanonicalDecoder::table_image`] for the same book, so
    /// dictionary CRCs are unchanged by the fast path.
    pub fn table_image(&self) -> Vec<u8> {
        self.reference.table_image()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;

    /// Decodes `stream` to exhaustion with both decoders, asserting
    /// identical symbols, positions and terminal error.
    fn assert_differential(book: &CodeBook, stream: &[u8], start: u64) {
        let reference = book.decoder();
        let lut = book.lut_decoder();
        let mut a = BitReader::at_bit(stream, start);
        let mut b = BitReader::at_bit(stream, start);
        loop {
            let x = reference.decode(&mut a);
            let y = lut.decode(&mut b);
            assert_eq!(x, y, "divergence at bit {}", a.bit_pos());
            assert_eq!(a.bit_pos(), b.bit_pos(), "cursor drift");
            if x.is_err() {
                break;
            }
        }
    }

    #[test]
    fn short_codes_round_trip_via_table() {
        let freqs = [40u64, 20, 10, 5, 2, 1];
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let msg: Vec<u32> = (0..6).chain((0..6).rev()).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let lut = book.lut_decoder();
        let mut r = BitReader::new(&bytes);
        assert_eq!(lut.decode_n(&mut r, msg.len()).unwrap(), msg);
    }

    #[test]
    fn long_codes_take_the_overflow_path() {
        // Exponential frequencies force codes far past 11 bits.
        let freqs: Vec<u64> = (0..30).map(|i| 1u64 << i).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        assert!(book.max_len() > DEFAULT_LUT_BITS as u8);
        let msg: Vec<u32> = (0..30).chain((0..30).rev()).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        let lut = book.lut_decoder();
        let mut r = BitReader::new(&bytes);
        assert_eq!(lut.decode_n(&mut r, msg.len()).unwrap(), msg);
        assert_differential(&book, &bytes, 0);
    }

    #[test]
    fn garbage_streams_match_reference_errors() {
        let freqs: Vec<u64> = (0..24).map(|i| (i as u64 + 1) * 3).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        // Deterministic pseudo-random garbage.
        let mut x = 0x2545F4914F6CDD1Du64;
        let bytes: Vec<u8> = (0..96)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            assert_differential(&book, &bytes, start);
        }
    }

    #[test]
    fn incomplete_book_invalid_positions_match() {
        // Code space: 0 (len 1), 10 (len 2); prefix 11 is invalid.
        let book = CodeBook::from_lengths(vec![1, 2, 0]);
        let lut = book.lut_decoder();
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(
            lut.decode(&mut r),
            Err(DecodeError::InvalidCode { at_bit: 2 })
        );
        assert_differential(&book, &bytes, 0);
    }

    #[test]
    fn truncated_and_empty_streams_match() {
        let book = CodeBook::from_freqs(&[1, 1, 1, 1]).unwrap();
        let lut = book.lut_decoder();
        let mut r = BitReader::new(&[]);
        assert_eq!(
            lut.decode(&mut r),
            Err(DecodeError::UnexpectedEos { at_bit: 0 })
        );
        let mut w = BitWriter::new();
        for s in [0u32, 1, 2, 3] {
            book.encode_into(s, &mut w);
        }
        let bytes = w.into_bytes();
        assert_differential(&book, &bytes, 0);
    }

    #[test]
    fn decode_n_matches_repeated_decode_including_errors() {
        let freqs: Vec<u64> = (0..24).map(|i| (i as u64 + 1) * 3).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let lut = book.lut_decoder();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            let mut a = BitReader::at_bit(&bytes, start);
            let mut syms = Vec::new();
            let err = loop {
                match lut.decode(&mut a) {
                    Ok(s) => syms.push(s),
                    Err(e) => break e,
                }
            };
            // Asking for one symbol too many must surface the same
            // prefix and the same terminal error at the same position.
            let mut b = BitReader::at_bit(&bytes, start);
            assert_eq!(lut.decode_n(&mut b, syms.len() + 1), Err(err));
            assert_eq!(a.bit_pos(), b.bit_pos(), "cursor drift after error");
            let mut c = BitReader::at_bit(&bytes, start);
            assert_eq!(lut.decode_n(&mut c, syms.len()).unwrap(), syms);
        }
    }

    #[test]
    fn counted_decode_tallies_bits_symbols_and_fallbacks() {
        // Exponential frequencies force codes past the table index, so
        // the Long path is exercised.
        let freqs: Vec<u64> = (0..30).map(|i| 1u64 << i).collect();
        let book = CodeBook::from_freqs(&freqs).unwrap();
        let lut = book.lut_decoder();
        assert!(book.max_len() > lut.lut_bits() as u8);
        let msg: Vec<u32> = (0..30).chain((0..30).rev()).collect();
        let mut w = BitWriter::new();
        let mut total_bits = 0u64;
        let mut expect_long = 0u64;
        for &s in &msg {
            book.encode_into(s, &mut w);
            total_bits += book.len_of(s) as u64;
            if book.len_of(s) as u32 > lut.lut_bits() {
                expect_long += 1;
            }
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut c = DecodeCounters::default();
        assert_eq!(
            lut.decode_n_counted(&mut r, msg.len(), &mut c).unwrap(),
            msg
        );
        assert_eq!(c.symbols, msg.len() as u64);
        assert_eq!(c.stall_bits, total_bits, "every code bit is a stall bit");
        // Long codes near the stream tail may resolve through the
        // short-stream path instead of a table hit, so the fallback
        // count is bounded by — and normally equal to — the long-code
        // population.
        assert!(c.long_fallbacks >= 1 && c.long_fallbacks <= expect_long);
        // The reference decoder counts the same bits and symbols.
        let mut r2 = BitReader::new(&bytes);
        let mut c2 = DecodeCounters::default();
        let reference = book.decoder();
        for _ in 0..msg.len() {
            reference.decode_counted(&mut r2, &mut c2).unwrap();
        }
        assert_eq!(c2.symbols, c.symbols);
        assert_eq!(c2.stall_bits, c.stall_bits);
        assert_eq!(c2.long_fallbacks, 0);
    }

    #[test]
    fn metadata_and_table_image_match_reference() {
        let book = CodeBook::from_freqs(&[9, 4, 2, 1]).unwrap();
        let reference = book.decoder();
        let lut = book.lut_decoder();
        assert_eq!(lut.max_len(), reference.max_len());
        assert_eq!(lut.dictionary_size(), reference.dictionary_size());
        assert_eq!(lut.table_image(), reference.table_image());
        assert!(lut.lut_bits() <= DEFAULT_LUT_BITS);
    }

    #[test]
    fn tiny_books_clamp_the_table() {
        let book = CodeBook::from_freqs(&[0, 5]).unwrap();
        let lut = book.lut_decoder();
        assert_eq!(lut.lut_bits(), 1);
        let mut w = BitWriter::new();
        for _ in 0..3 {
            book.encode_into(1, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(lut.decode_n(&mut r, 3).unwrap(), vec![1, 1, 1]);
        assert_differential(&book, &bytes, 0);
    }
}
