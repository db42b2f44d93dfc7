//! The one output format of the harness: a titled table that prints
//! column-aligned to stdout and renders to the CSV committed under
//! `results/`.

use std::path::{Path, PathBuf};

/// A column-aligned table accumulator; `name` is the stem of its CSV.
pub struct Table {
    name: &'static str,
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    pub fn new(name: &'static str, title: &str, header: &[&str]) -> Self {
        Self {
            name,
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width");
        self.rows.push(cells);
    }

    /// Attach a computed summary line: printed under the table, never
    /// part of the CSV.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print to stdout with aligned columns.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
        for note in &self.notes {
            println!("{note}");
        }
    }

    /// The CSV document: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Write `<dir>/<name>.csv`, creating `dir` if needed; returns the path.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Format a float with fixed decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_must_match_header() {
        let mut t = Table::new("t", "t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let mut t = Table::new("t", "t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_is_header_then_rows() {
        let mut t = Table::new("t", "title", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("not in the csv".into());
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
