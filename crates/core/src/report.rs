//! Plain-text table rendering and CSV output for the experiment runner.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A simple monospace table with auto-sized columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// An empty table with a title row and column headers.
    pub fn new(title: &str, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; shorter rows are padded with empty cells.
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Self {
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Render with box-drawing rules.
    pub fn render(&self) -> String {
        let cols = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let line = |out: &mut String| {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            out.push_str(&s);
            out.push('\n');
        };
        let render_row = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let c = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = w - c.chars().count();
                let _ = write!(s, " {}{} |", c, " ".repeat(pad));
            }
            out.push_str(&s);
            out.push('\n');
        };
        line(&mut out);
        if !self.headers.is_empty() {
            render_row(&mut out, &self.headers);
            line(&mut out);
        }
        for row in &self.rows {
            render_row(&mut out, row);
        }
        line(&mut out);
        out
    }
}

/// Write rows as CSV (minimal quoting: fields containing commas, quotes
/// or newlines are quoted with doubled inner quotes).
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let quote = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    writeln!(f, "{}", headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(","))?;
    for row in rows {
        writeln!(f, "{}", row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","))?;
    }
    f.flush()
}

/// Format a count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format a percentage to two decimals.
pub fn fmt_pct(x: f64) -> String {
    format!("{x:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new("Demo", &["name", "count"]);
        t.row(&["alpha", "1"]);
        t.row(&["beta-longer", "22,000"]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| alpha"));
        assert!(s.contains("| beta-longer"));
        // All data lines have equal width.
        let widths: Vec<usize> =
            s.lines().filter(|l| l.starts_with('|')).map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new("", &["a", "b", "c"]);
        t.row(&["x"]);
        let s = t.render();
        assert!(s.lines().filter(|l| l.starts_with('|')).count() == 2);
    }

    #[test]
    fn csv_quoting() {
        let dir = std::env::temp_dir().join("ah_report_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["plain".into(), "has,comma".into()], vec!["has\"q".into(), "x".into()]],
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"has,comma\""));
        assert!(body.contains("\"has\"\"q\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1234567), "1,234,567");
        assert_eq!(fmt_pct(7.777), "7.78%");
        assert_eq!(fmt_pct(0.1), "0.10%");
    }
}
