//! Cross-scheme comparison report — the data behind Figures 5, 7 and 10.

use crate::att::AddressTranslationTable;
use crate::encoded::DecoderCost;
use crate::schemes::{BASE, MATRIX};
use std::fmt;
use tepic_isa::Program;

/// One row: a scheme applied to one program.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeRow {
    /// Scheme name (`base`, `byte`, `stream`, `stream_1`, `full`,
    /// `tailored`).
    pub scheme: String,
    /// Code segment bytes.
    pub code_bytes: usize,
    /// Code segment as a fraction of the base image (Figure 5).
    pub code_ratio: f64,
    /// Stored ATT bytes (0 for base, which needs no translation).
    pub att_bytes: usize,
    /// Code + ATT as a fraction of base (Figure 7).
    pub total_ratio: f64,
    /// Decoder hardware cost in modelled transistors (Figure 10).
    pub decoder_transistors: u128,
    /// Huffman dictionary entries (0 for base/tailored).
    pub dictionary_entries: usize,
}

/// A full report over one program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionReport {
    /// Workload label.
    pub name: String,
    /// Original (base) code size in bytes.
    pub original_bytes: usize,
    /// One row per scheme, base first.
    pub rows: Vec<SchemeRow>,
}

impl CompressionReport {
    /// Runs base and every [`MATRIX`] scheme over `program`.
    ///
    /// # Panics
    ///
    /// Panics if any scheme fails or produces an image that does not
    /// round-trip — a report over corrupt data would be worse than a
    /// crash.
    pub fn build(name: &str, program: &Program) -> CompressionReport {
        let original = program.code_size();
        let mut rows = Vec::new();
        for entry in std::iter::once(BASE).chain(MATRIX) {
            let scheme = entry.build();
            let out = scheme
                .compress(program)
                .unwrap_or_else(|e| panic!("{} failed on {name}: {e}", scheme.name()));
            assert!(
                out.verify_roundtrip(program),
                "{} corrupted {name}",
                scheme.name()
            );
            let att_bytes = if matches!(out.image.decoder, DecoderCost::None) {
                0 // base runs in the original address space
            } else {
                AddressTranslationTable::build(program, &out.image).stored_bytes()
            };
            rows.push(SchemeRow {
                scheme: scheme.name(),
                code_bytes: out.image.total_bytes(),
                code_ratio: out.image.ratio(original),
                att_bytes,
                total_ratio: (out.image.total_bytes() + att_bytes) as f64 / original as f64,
                decoder_transistors: out.image.decoder.transistors(),
                dictionary_entries: out.image.decoder.dictionary_entries(),
            });
        }
        CompressionReport {
            name: name.to_string(),
            original_bytes: original,
            rows,
        }
    }

    /// The row for a scheme, if present.
    pub fn row(&self, scheme: &str) -> Option<&SchemeRow> {
        self.rows.iter().find(|r| r.scheme == scheme)
    }
}

impl fmt::Display for CompressionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: original code {} bytes",
            self.name, self.original_bytes
        )?;
        writeln!(
            f,
            "{:<10} {:>10} {:>8} {:>9} {:>8} {:>14} {:>8}",
            "scheme", "code B", "code %", "ATT B", "total %", "decoder T", "dict"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>10} {:>7.1}% {:>9} {:>7.1}% {:>14} {:>8}",
                r.scheme,
                r.code_bytes,
                r.code_ratio * 100.0,
                r.att_bytes,
                r.total_ratio * 100.0,
                r.decoder_transistors,
                r.dictionary_entries
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil::sample_program;

    #[test]
    fn report_covers_all_schemes() {
        let p = sample_program();
        let rep = CompressionReport::build("sample", &p);
        for s in ["base", "byte", "stream", "stream_1", "full", "tailored"] {
            assert!(rep.row(s).is_some(), "missing row {s}");
        }
        assert!((rep.row("base").unwrap().code_ratio - 1.0).abs() < 1e-12);
        assert_eq!(rep.row("base").unwrap().att_bytes, 0);
    }

    #[test]
    fn figure5_shape_holds() {
        let p = sample_program();
        let rep = CompressionReport::build("sample", &p);
        let full = rep.row("full").unwrap().code_ratio;
        let tailored = rep.row("tailored").unwrap().code_ratio;
        let byte = rep.row("byte").unwrap().code_ratio;
        assert!(full < tailored && full < byte, "full must compress best");
        assert!(tailored < 1.0 && byte < 1.0);
    }

    #[test]
    fn figure10_shape_holds() {
        let p = sample_program();
        let rep = CompressionReport::build("sample", &p);
        let full = rep.row("full").unwrap().decoder_transistors;
        let byte = rep.row("byte").unwrap().decoder_transistors;
        let tailored = rep.row("tailored").unwrap().decoder_transistors;
        assert!(full > byte, "full decoder biggest of the Huffman family");
        assert!(tailored < byte, "tailored PLA smallest nonzero decoder");
    }

    #[test]
    fn display_renders_rows() {
        let p = sample_program();
        let rep = CompressionReport::build("sample", &p);
        let s = rep.to_string();
        assert!(s.contains("tailored"));
        assert!(s.contains("decoder T"));
    }
}
