//! # ccc-bench — the experiment harness
//!
//! Reproduces every table and figure of the paper. [`figures::FIGURES`]
//! lists the suite (DESIGN.md §3 maps each entry to the paper);
//! `tepic-cc bench --figures <name>` renders one and refreshes its
//! committed `results/<stem>.txt`.
//!
//! This library holds the shared plumbing: the parallel prepared-
//! workload [`engine`] (worker pool + content-addressed artifact cache),
//! the pure figure renderers ([`figures`]), and the text-table renderer.

pub mod engine;
pub mod figures;
pub mod history;
pub mod serve;

use ccc_core::EncodedProgram;
use ifetch_sim::{simulate, EncodingClass, FetchConfig, FetchResult};
use tepic_isa::Program;
use tinker_workloads::Workload;
use yula::BlockTrace;

/// A fully prepared workload: compiled, traced, and encoded under every
/// scheme of the paper's Figure-5 matrix plus the uncompressed base.
#[derive(Debug)]
pub struct Prepared {
    /// The workload descriptor.
    pub workload: &'static Workload,
    /// The compiled program.
    pub program: Program,
    /// Its dynamic block trace.
    pub trace: BlockTrace,
    /// Uncompressed image.
    pub base_img: EncodedProgram,
    /// Byte-wise Huffman image.
    pub byte_img: EncodedProgram,
    /// Stream Huffman image (the `stream` configuration).
    pub stream_img: EncodedProgram,
    /// Stream Huffman image (the `stream_1` configuration).
    pub stream1_img: EncodedProgram,
    /// Full-op compressed image.
    pub compressed_img: EncodedProgram,
    /// Tailored image.
    pub tailored_img: EncodedProgram,
}

impl Prepared {
    /// The encoded image for a figure scheme name (including `base`).
    pub fn image(&self, scheme: &str) -> Option<&EncodedProgram> {
        match scheme {
            "base" => Some(&self.base_img),
            "byte" => Some(&self.byte_img),
            "stream" => Some(&self.stream_img),
            "stream_1" => Some(&self.stream1_img),
            "full" => Some(&self.compressed_img),
            "tailored" => Some(&self.tailored_img),
            _ => None,
        }
    }

    /// The matrix images in figure order, named.
    pub fn images(&self) -> impl Iterator<Item = (&'static str, &EncodedProgram)> {
        engine::MATRIX_SCHEMES
            .into_iter()
            .map(|s| (s, self.image(s).expect("matrix scheme")))
    }
}

/// The Figure-13 quartet for one prepared workload.
pub struct CacheStudy {
    /// Perfect cache/predictor bound.
    pub ideal: FetchResult,
    /// Uncompressed baseline.
    pub base: FetchResult,
    /// Full-op compressed with L0 buffer.
    pub compressed: FetchResult,
    /// Tailored ISA.
    pub tailored: FetchResult,
}

/// Runs the four fetch configurations over one prepared workload, using
/// the paper-spec (16KB/20KB) caches. With our workload sizes these see
/// almost no capacity pressure; use [`cache_study_scaled`] for the
/// Figure-13 reproduction.
pub fn cache_study(p: &Prepared) -> CacheStudy {
    study(p, FetchConfig::for_class)
}

/// Runs the four fetch configurations with caches scaled to the
/// workload's code size, preserving the paper's code:cache pressure
/// (see [`FetchConfig::scaled`] and DESIGN.md section 4).
pub fn cache_study_scaled(p: &Prepared) -> CacheStudy {
    let code = p.base_img.total_bytes();
    study(p, |class| FetchConfig::scaled(class, code))
}

fn study(p: &Prepared, config: impl Fn(EncodingClass) -> FetchConfig) -> CacheStudy {
    let run = |img, class| simulate(&p.program, img, &p.trace, &config(class));
    CacheStudy {
        ideal: run(&p.base_img, EncodingClass::Ideal),
        base: run(&p.base_img, EncodingClass::Base),
        compressed: run(&p.compressed_img, EncodingClass::Compressed),
        tailored: run(&p.tailored_img, EncodingClass::Tailored),
    }
}

/// Renders a fixed-width text table: a header row and data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>width$}", width = w + 2))
            .collect::<String>()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Geometric mean of a nonempty, positive series.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.max(1e-300).ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// Median (averaging the middle pair for even lengths).
pub fn median(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    let mut v = vals.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderer_aligns() {
        let t = render_table(
            &["name", "x"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        assert!(t.contains("longer"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn stats_helpers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
