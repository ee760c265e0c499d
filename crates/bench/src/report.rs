//! Plain-text table rendering for the experiment binaries.

/// A simple aligned-column table printed to stdout, matching the row
/// format recorded in `EXPERIMENTS.md`.
///
/// ```
/// use cso_bench::report::Table;
///
/// let mut table = Table::new(&["impl", "threads", "ops/s"]);
/// table.row(vec!["cs-stack".into(), "4".into(), "1.2M".into()]);
/// let rendered = table.render();
/// assert!(rendered.contains("cs-stack"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as an aligned string.
    #[must_use]
    pub fn render(&self) -> String {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                out.push_str(&format!("{:<width$}", cell, width = widths[i]));
                if i + 1 < columns {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (columns - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a rate with engineering suffixes (`1.23M ops/s` style
/// numbers without the unit).
#[must_use]
pub fn fmt_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_is_enforced() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(532.0), "532");
        assert_eq!(fmt_rate(15_300.0), "15.3k");
        assert_eq!(fmt_rate(2_500_000.0), "2.50M");
        assert_eq!(fmt_rate(3.1e9), "3.10G");
    }
}
