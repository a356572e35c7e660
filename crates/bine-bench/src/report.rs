//! Small reporting helpers: geometric means, percentiles, box-plot summaries
//! and fixed-width table rendering for the `bine-bench paper` artifacts.

/// Geometric mean of a slice of ratios (returns 1.0 for an empty slice), the
/// averaging the paper uses for performance ratios (Sec. 5.1.1, citing
/// Hoefler & Belli).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The maximum of a slice (0.0 for an empty slice).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Linear-interpolated percentile (`q` in [0, 1]) of a slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

/// Five-number summary used to describe the paper's box plots in text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPlot {
    /// Minimum value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
}

impl BoxPlot {
    /// Computes the five-number summary of `values`.
    pub fn of(values: &[f64]) -> Self {
        Self {
            min: percentile(values, 0.0),
            q1: percentile(values, 0.25),
            median: percentile(values, 0.5),
            q3: percentile(values, 0.75),
            max: percentile(values, 1.0),
        }
    }
}

impl std::fmt::Display for BoxPlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:6.1}  q1 {:6.1}  med {:6.1}  q3 {:6.1}  max {:6.1}",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// Formats a byte count the way the paper labels its axes (32 B … 512 MiB).
pub fn format_bytes(bytes: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * 1024;
    const GIB: u64 = 1024 * 1024 * 1024;
    if bytes >= GIB && bytes.is_multiple_of(GIB) {
        format!("{} GiB", bytes / GIB)
    } else if bytes >= MIB && bytes.is_multiple_of(MIB) {
        format!("{} MiB", bytes / MIB)
    } else if bytes >= KIB && bytes.is_multiple_of(KIB) {
        format!("{} KiB", bytes / KIB)
    } else {
        format!("{} B", bytes)
    }
}

/// Renders rows of equal length as a fixed-width table with a header.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row has wrong number of columns");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Single-letter code for an algorithm name, following the legend of
/// Fig. 9/10 (N = binomial/butterfly baseline, R = ring, B = Bruck,
/// S = Swing, P = pairwise).
pub fn algorithm_letter(name: &str) -> char {
    if name.starts_with("bine") {
        '*'
    } else if name.starts_with("binomial")
        || name.starts_with("recursive")
        || name.starts_with("rabenseifner")
        || name.starts_with("scatter-allgather")
        || name.starts_with("rs-gather")
    {
        'N'
    } else if name.starts_with("ring") {
        'R'
    } else if name.starts_with("bruck") {
        'B'
    } else if name.starts_with("swing") {
        'S'
    } else if name.starts_with("pairwise") {
        'P'
    } else {
        name.chars().next().unwrap_or('?').to_ascii_uppercase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 1.0);
    }

    #[test]
    fn percentiles_and_boxplot() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        let b = BoxPlot::of(&v);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
    }

    #[test]
    fn byte_formatting_matches_paper_labels() {
        assert_eq!(format_bytes(32), "32 B");
        assert_eq!(format_bytes(2048), "2 KiB");
        assert_eq!(format_bytes(512 * 1024 * 1024), "512 MiB");
    }

    #[test]
    fn table_rendering_is_aligned() {
        let t = render_table(
            &["a", "bb"],
            &[
                vec!["1".into(), "2".into()],
                vec!["33".into(), "444".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn letters_distinguish_algorithm_families() {
        assert_eq!(algorithm_letter("binomial-dd"), 'N');
        assert_eq!(algorithm_letter("recursive-doubling"), 'N');
        assert_eq!(algorithm_letter("ring"), 'R');
        assert_eq!(algorithm_letter("bruck"), 'B');
        assert_eq!(algorithm_letter("bine-large"), '*');
    }
}
