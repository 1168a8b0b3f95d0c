//! Plain-text result tables (markdown-compatible) for the experiment
//! harness and EXPERIMENTS.md.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header width).
    ///
    /// # Panics
    /// Panics on column-count mismatch — a malformed experiment table is
    /// a bug, not a runtime condition.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as a markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(out, " {cell:<w$} |");
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{:-<width$}|", "", width = w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Render as a JSON array of row objects keyed by header. Numeric
    /// cells become numbers; everything else is an escaped string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("  {");
            for (j, (key, cell)) in self.header.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", json_string(key), json_cell(cell));
            }
            out.push('}');
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }
}

/// A cell as a JSON value: bare if it parses as a finite JSON number
/// (no leading `+`, no `1.` / `.5` forms), a string otherwise.
fn json_cell(cell: &str) -> String {
    let numeric = cell.parse::<f64>().is_ok_and(f64::is_finite)
        && !cell.starts_with('+')
        && !cell.ends_with('.')
        && !cell.starts_with('.')
        && !cell.starts_with("-.")
        && !cell.eq_ignore_ascii_case("nan")
        && !cell.contains("inf")
        && !cell.contains("Inf");
    if numeric {
        cell.to_string()
    } else {
        json_string(cell)
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_aligned() {
        let mut t = Table::new(["method", "f1"]);
        t.row(["temporal", "0.91"]);
        t.row(["complete", "0.72"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| method"));
        assert!(md.contains("| temporal | 0.91 |"));
        assert_eq!(md.lines().count(), 4);
        // Separator row present.
        assert!(md.lines().nth(1).unwrap().starts_with("|--"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn json_renders_typed_rows() {
        let mut t = Table::new(["method", "f1", "note"]);
        t.row(["temporal", "0.91", "ok \"quoted\""]);
        t.row(["complete", "-", "inf"]);
        let json = t.to_json();
        assert!(json.starts_with("[\n") && json.ends_with(']'));
        // Numbers stay bare, strings are escaped.
        assert!(json.contains("\"f1\": 0.91"));
        assert!(json.contains("\"method\": \"temporal\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"f1\": \"-\""));
        assert!(json.contains("\"note\": \"inf\""));
        assert_eq!(json.matches('{').count(), 2);
    }
}
