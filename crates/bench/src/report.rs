//! Aligned-table and CSV output for the experiments, written to whatever
//! `Write` the caller hands in so a run can be captured and compared.

use std::fmt::Display;
use std::io::{self, Write};

/// A simple text table with a header row.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// When true, also print the rows in CSV form after the table.
    pub csv: bool,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: AsRef<str>>(header: &[S], csv: bool) -> Self {
        Table {
            header: header.iter().map(|h| h.as_ref().to_string()).collect(),
            rows: Vec::new(),
            csv,
        }
    }

    /// Append a row of displayable cells.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        self.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Append a row built cell by cell.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render the aligned table (plus CSV if enabled) to `out`.
    pub fn print(&self, out: &mut dyn Write) -> io::Result<()> {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(out, "{}", line(&self.header))?;
        let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(out, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            writeln!(out, "{}", line(row))?;
        }
        if self.csv {
            writeln!(out, "\n# csv\n{}", self.header.join(","))?;
            for row in &self.rows {
                writeln!(out, "{}", row.join(","))?;
            }
        }
        Ok(())
    }
}

/// Format a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format bytes human-readably (1.5MB etc.).
pub fn human_bytes(b: u64) -> String {
    if b >= 1_000_000_000 {
        format!("{}GB", b / 1_000_000_000)
    } else if b >= 1_000_000 {
        format!("{}MB", b / 1_000_000)
    } else if b >= 1_000 {
        format!("{}kB", b / 1_000)
    } else {
        format!("{b}B")
    }
}

/// Index of the smallest value under `f64::total_cmp`. Total order means a
/// NaN (which sorts above every number) can never win the comparison or
/// panic a `partial_cmp().unwrap()`; `None` only for an empty slice.
pub fn min_index_total(vals: &[f64]) -> Option<usize> {
    vals.iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

/// Write an experiment banner.
pub fn banner(out: &mut dyn Write, title: &str, detail: &str) -> io::Result<()> {
    writeln!(out, "=== {title} ===")?;
    if !detail.is_empty() {
        writeln!(out, "{detail}")?;
    }
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_row_widths_checked() {
        let mut t = Table::new(&["a", "b"], false);
        t.row(&[&1, &"2"]);
        assert_eq!(t.rows, [["1", "2"]]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn bad_row_rejected() {
        let mut t = Table::new(&["a", "b"], false);
        t.row(&[&"only-one"]);
    }

    #[test]
    fn human_bytes_scales() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(100_000), "100kB");
        assert_eq!(human_bytes(30_000_000), "30MB");
        assert_eq!(human_bytes(2_000_000_000), "2GB");
    }

    #[test]
    fn min_index_total_survives_nan() {
        // The `partial_cmp().unwrap()` this replaced panicked on any NaN;
        // under total_cmp a NaN sorts above every number and simply loses.
        assert_eq!(min_index_total(&[3.0, f64::NAN, 1.0, 2.0]), Some(2));
        assert_eq!(min_index_total(&[f64::NAN, f64::NAN]), Some(0));
        assert_eq!(min_index_total(&[2.0, 1.0, 1.0]), Some(1));
        assert_eq!(min_index_total(&[]), None);
    }
}
