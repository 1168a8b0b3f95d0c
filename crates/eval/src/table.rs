//! Plain-text result tables (markdown-compatible) for the experiment
//! harness and EXPERIMENTS.md.
//!
//! A table knows which of its columns are clocks — declared once, where
//! the header is written ([`Table::clocks`]) — so the same rows render
//! as a figure (markdown, JSON: every column) and as a gate
//! ([`Table::to_counts`]: only the columns that repeat exactly for a
//! seed).

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    /// Parallel to `header`: whether the column is a clock.
    is_clock: Vec<bool>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table whose first columns are the given count columns.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table::default().counts(header)
    }

    /// Append count columns to the header: cells that repeat exactly for
    /// a seed (sizes, comparisons, pairs scored, F-measures, labels).
    pub fn counts<S: Into<String>, I: IntoIterator<Item = S>>(self, header: I) -> Self {
        self.columns(header, false)
    }

    /// Append clock columns to the header: measured cells — wall time,
    /// resident memory, anything that depends on the machine and the
    /// scheduler. They render like every other column and are left out
    /// of [`Table::to_counts`].
    pub fn clocks<S: Into<String>, I: IntoIterator<Item = S>>(self, header: I) -> Self {
        self.columns(header, true)
    }

    fn columns<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>, clock: bool) -> Self {
        assert!(self.rows.is_empty(), "the header is complete before the first row");
        for name in names {
            self.header.push(name.into());
            self.is_clock.push(clock);
        }
        self
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

    /// The rows as gate lines: one per row, `experiment<TAB>column=value…`
    /// over the count columns in header order, clock columns omitted.
    /// Empty when the table has no count column.
    pub fn to_counts(&self, experiment: &str) -> String {
        let mut out = String::new();
        if self.is_clock.iter().all(|&clock| clock) {
            return out;
        }
        for row in &self.rows {
            out.push_str(experiment);
            for ((name, cell), &clock) in self.header.iter().zip(row).zip(&self.is_clock) {
                if !clock {
                    let _ = write!(out, "\t{name}={cell}");
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A cell as a JSON value: bare if it is a JSON number, a string
/// otherwise.
fn json_cell(cell: &str) -> String {
    if is_json_number(cell) {
        cell.to_string()
    } else {
        json_string(cell)
    }
}

/// The JSON number grammar:
/// `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`. What Rust's
/// `f64::from_str` accepts is wider (`007`, `+1`, `1.`, `.5`, `inf`) and
/// no JSON parser takes those bare.
fn is_json_number(cell: &str) -> bool {
    let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
    let unsigned = cell.strip_prefix('-').unwrap_or(cell);
    let (mantissa, exponent) = match unsigned.split_once(['e', 'E']) {
        Some((m, e)) => (m, Some(e.strip_prefix(['+', '-']).unwrap_or(e))),
        None => (unsigned, None),
    };
    let (int, frac) = match mantissa.split_once('.') {
        Some((i, f)) => (i, Some(f)),
        None => (mantissa, None),
    };
    digits(int)
        && (int == "0" || !int.starts_with('0'))
        && frac.is_none_or(digits)
        && exponent.is_none_or(digits)
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
    fn clock_columns_render_everywhere_but_in_the_counts() {
        let header = ["events", "ms/event", "stories", "p95 ms", "note"];
        let rows =
            [["500", "0.0089", "82", "0.0152", "-"], ["1000", "0.0106", "180", "0.0184", "ok"]];
        let mut plain = Table::new(header);
        let mut clocked = Table::new(["events"])
            .clocks(["ms/event"])
            .counts(["stories"])
            .clocks(["p95 ms"])
            .counts(["note"]);
        for row in rows {
            plain.row(row);
            clocked.row(row);
        }
        // Declaring clocks changes neither rendering.
        assert_eq!(clocked.to_markdown(), plain.to_markdown());
        assert_eq!(clocked.to_json(), plain.to_json());
        // The counts hold exactly the count cells, in header order.
        assert_eq!(
            clocked.to_counts("e1"),
            "e1\tevents=500\tstories=82\tnote=-\ne1\tevents=1000\tstories=180\tnote=ok\n"
        );
    }

    #[test]
    fn a_clock_only_table_has_no_counts() {
        let mut t = Table::default().clocks(["connect s", "p99 us"]);
        t.row(["4.11", "393.2"]);
        assert!(t.to_markdown().contains("| 4.11      | 393.2  |"));
        assert_eq!(t.to_counts("conns"), "");
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

        // Bare exactly when the JSON number grammar says so: what
        // `f64::from_str` also accepts (leading zeros, `+`, a bare dot,
        // the named non-finites) must come out quoted.
        let cell = |c: &str| {
            let mut t = Table::new(["c"]);
            t.row([c]);
            t.to_json()
        };
        for bare in ["0", "-0", "7", "-12", "0.5", "-0.25", "1e5", "1E-5", "2.5e+10"] {
            assert!(cell(bare).contains(&format!("\"c\": {bare}}}")), "{bare} must stay bare");
        }
        for quoted in
            ["007", "-01", "00.5", "+1", "1.", ".5", "-.5", "NaN", "inf", "-inf", "1e", "1e+", "-"]
        {
            assert!(
                cell(quoted).contains(&format!("\"c\": \"{quoted}\"}}")),
                "{quoted:?} is not a JSON number: {}",
                cell(quoted)
            );
        }
    }
}
