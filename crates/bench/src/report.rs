//! Plain-text report formatting: fixed-width tables and (x, y…) series that
//! mirror the rows and curves of the paper's tables and figures, and the
//! typed leaf reads every renderer turns an artifact into text with.

use std::fmt::Write as _;

use dmp_runner::Json;

/// Why an artifact does not render: the member that is missing or holds the
/// wrong kind of value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderError(pub String);

impl std::fmt::Display for RenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RenderError {}

/// Typed reads of an artifact's members: a missing member or a value of the
/// wrong kind is a [`RenderError`] naming the member, never a panic.
pub trait Leaf {
    /// The member `key`.
    fn at(&self, key: &str) -> Result<&Json, RenderError>;

    /// The number at `key`.
    fn num(&self, key: &str) -> Result<f64, RenderError> {
        self.at(key)?.as_f64().ok_or_else(|| kind(key, "a number"))
    }

    /// The number at `key`, `None` for `null` (an unreachable cell).
    fn opt_num(&self, key: &str) -> Result<Option<f64>, RenderError> {
        match self.at(key)? {
            Json::Null => Ok(None),
            v => v.as_f64().map(Some).ok_or_else(|| kind(key, "a number")),
        }
    }

    /// The string at `key`.
    fn text(&self, key: &str) -> Result<&str, RenderError> {
        self.at(key)?.as_str().ok_or_else(|| kind(key, "a string"))
    }

    /// The array at `key`.
    fn items(&self, key: &str) -> Result<&[Json], RenderError> {
        self.at(key)?.as_arr().ok_or_else(|| kind(key, "an array"))
    }

    /// The bool at `key`.
    fn flag(&self, key: &str) -> Result<bool, RenderError> {
        self.at(key)?.as_bool().ok_or_else(|| kind(key, "a bool"))
    }
}

impl Leaf for Json {
    fn at(&self, key: &str) -> Result<&Json, RenderError> {
        self.get(key)
            .ok_or_else(|| RenderError(format!("no member `{key}`")))
    }
}

fn kind(key: &str, want: &str) -> RenderError {
    RenderError(format!("`{key}` is not {want}"))
}

/// The generic renderer: the artifact's `table` leaf, or each of its
/// `tables` separated by a blank line — exactly what a tables-only target
/// prints.
pub fn tables(doc: &Json) -> Result<String, RenderError> {
    if let Some(t) = doc.get("table") {
        return Ok(Table::from_json(t)?.render());
    }
    let mut blocks = Vec::new();
    for t in doc.items("tables")? {
        blocks.push(Table::from_json(t)?.render());
    }
    Ok(blocks.join("\n"))
}

/// A fixed-width text table.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Structured form for JSON artifacts: title, header, and rows exactly
    /// as rendered (deterministic — no floats re-parsed, no locale).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::Str(self.title.clone())),
            (
                "header",
                Json::arr(self.header.iter().map(|h| Json::Str(h.clone()))),
            ),
            (
                "rows",
                Json::arr(
                    self.rows
                        .iter()
                        .map(|r| Json::arr(r.iter().map(|c| Json::Str(c.clone())))),
                ),
            ),
        ])
    }

    /// The table [`Table::to_json`] stored: every cell a string, every row
    /// as wide as the header.
    pub fn from_json(doc: &Json) -> Result<Self, RenderError> {
        let strings = |cells: &[Json]| -> Result<Vec<String>, RenderError> {
            let cell = |c: &Json| c.as_str().map(str::to_string);
            cells
                .iter()
                .map(cell)
                .collect::<Option<_>>()
                .ok_or_else(|| kind("rows", "strings"))
        };
        let header = strings(doc.items("header")?)?;
        let mut rows = Vec::new();
        for row in doc.items("rows")? {
            let row = strings(row.as_arr().ok_or_else(|| kind("rows", "arrays"))?)?;
            if row.len() != header.len() {
                return Err(RenderError("a row is not as wide as the header".into()));
            }
            rows.push(row);
        }
        let title = doc.text("title")?.to_string();
        Ok(Self {
            title,
            header,
            rows,
        })
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{:>width$}  ", c, width = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Format a value with a 95% confidence half-width, e.g. `0.037 ±0.004`.
pub fn ci(mean: f64, half: f64, digits: usize) -> String {
    format!("{mean:.digits$} ±{half:.digits$}")
}

/// Format a late fraction in scientific-ish notation like the paper's log
/// plots (`<1e-6` for zero observations).
pub fn frac(f: f64) -> String {
    if f == 0.0 {
        "<1e-6".to_string()
    } else {
        format!("{f:.2e}")
    }
}

/// Format an optional required startup delay (`-` = not reachable).
pub fn tau(t: Option<f64>) -> String {
    match t {
        Some(t) => format!("{t:.1}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "value"]);
        t.row(vec!["x".into(), "1.0".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
        // Both rows align on the same column width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new("t", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(ci(0.0371, 0.0042, 3), "0.037 ±0.004");
        assert_eq!(frac(0.0), "<1e-6");
        assert_eq!(frac(3.2e-4), "3.20e-4");
        assert_eq!(tau(Some(9.95)), "9.9"); // f64 formatting truncation is fine
        assert_eq!(tau(None), "-");
    }
}
