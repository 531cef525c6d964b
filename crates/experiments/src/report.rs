//! Experiment reports: aligned text tables, CSV, and JSON artifacts.

use histo_trace::escape_json_into;

/// A JSON value, for writing artifacts in the conventional pretty layout
/// (2-space indent, one element or member per line, `"key": value`,
/// `[]`/`{}` when empty) that the artifact scripts and diffs expect.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// An unsigned integer.
    U64(u64),
    /// A float; non-finite values are written as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep their order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `Some(v)` as `v`, `None` as `null`.
    pub fn opt_f64(v: Option<f64>) -> Self {
        v.map_or(Json::Null, Json::F64)
    }

    /// Renders in the pretty layout.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::U64(v) => out.push_str(&v.to_string()),
            // `{:?}` is the shortest round-trip form with a `.0` on
            // integral values, the usual JSON writer convention.
            Json::F64(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                escape_json_into(out, s);
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push('"');
                    escape_json_into(out, key);
                    out.push_str("\": ");
                    value.write(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn json_obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn json_strs<S: AsRef<str>>(items: &[S]) -> Json {
    Json::Arr(
        items
            .iter()
            .map(|s| Json::Str(s.as_ref().to_string()))
            .collect(),
    )
}

/// A simple rectangular table of strings with a title and headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (e.g. `"T2: minimal samples vs n"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders an aligned plain-text table.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A complete experiment report, serializable to JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id from EXPERIMENTS.md (e.g. `"T2"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The claim from the paper this experiment validates.
    pub validates: String,
    /// RNG seed used.
    pub seed: u64,
    /// Free-form parameter description.
    pub params: Vec<(String, String)>,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Conclusions / shape checks, one line each.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, validates: &str, seed: u64) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            validates: validates.into(),
            seed,
            params: vec![],
            tables: vec![],
            notes: vec![],
        }
    }

    /// Records a parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Adds a table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Adds a conclusion note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the whole report as text (what the bench binaries print).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n", self.id, self.title));
        out.push_str(&format!("validates: {}\n", self.validates));
        out.push_str(&format!("seed: {}\n", self.seed));
        for (key, value) in &self.params {
            out.push_str(&format!("  {key} = {value}\n"));
        }
        out.push('\n');
        for t in &self.tables {
            out.push_str(&t.render_text());
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Serializes to pretty JSON: an object with the fields in
    /// declaration order, `params` as `[key, value]` pairs.
    pub fn to_json(&self) -> String {
        let tables = self.tables.iter().map(|t| {
            let rows = t.rows.iter().map(|r| json_strs(r)).collect();
            json_obj([
                ("title", Json::Str(t.title.clone())),
                ("headers", json_strs(&t.headers)),
                ("rows", Json::Arr(rows)),
            ])
        });
        let params = self.params.iter().map(|(k, v)| json_strs(&[k, v]));
        json_obj([
            ("id", Json::Str(self.id.clone())),
            ("title", Json::Str(self.title.clone())),
            ("validates", Json::Str(self.validates.clone())),
            ("seed", Json::U64(self.seed)),
            ("params", Json::Arr(params.collect())),
            ("tables", Json::Arr(tables.collect())),
            ("notes", json_strs(&self.notes)),
        ])
        .pretty()
    }

    /// Writes `<dir>/<id>.json`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("demo", &["n", "samples"]);
        t.push_row(vec!["100".into(), "1234".into()]);
        t.push_row(vec!["10000".into(), "56789".into()]);
        t
    }

    #[test]
    fn text_rendering_aligns() {
        let text = sample_table().render_text();
        assert!(text.contains("== demo =="));
        assert!(text.contains("samples"));
        let lines: Vec<&str> = text.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn report_json_has_the_pretty_layout() {
        let mut r = ExperimentReport::new("T2", "say \"hi\"", "a\\b\nc ε → √n", 42);
        r.param("k", 4);
        r.table(sample_table());
        let expected = r#"{
  "id": "T2",
  "title": "say \"hi\"",
  "validates": "a\\b\nc ε → √n",
  "seed": 42,
  "params": [
    [
      "k",
      "4"
    ]
  ],
  "tables": [
    {
      "title": "demo",
      "headers": [
        "n",
        "samples"
      ],
      "rows": [
        [
          "100",
          "1234"
        ],
        [
          "10000",
          "56789"
        ]
      ]
    }
  ],
  "notes": []
}"#;
        assert_eq!(r.to_json(), expected);
    }

    #[test]
    fn json_values_render_in_the_pretty_layout() {
        let v = json_obj([
            ("a", Json::F64(1.0)),
            ("b", Json::F64(0.25)),
            ("c", Json::F64(f64::NAN)),
            ("d", Json::opt_f64(None)),
            ("e", Json::Obj(vec![])),
            ("f", Json::Str("tab\there\u{1}".into())),
        ]);
        let expected = "{\n  \"a\": 1.0,\n  \"b\": 0.25,\n  \"c\": null,\n  \"d\": null,\n  \"e\": {},\n  \"f\": \"tab\\there\\u0001\"\n}";
        assert_eq!(v.pretty(), expected);
    }

    #[test]
    fn report_writes_file() {
        let dir = std::env::temp_dir().join("histo-exp-test");
        let r = ExperimentReport::new("T0", "t", "v", 1);
        let path = r.write_json(&dir).unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn render_text_includes_everything() {
        let mut r = ExperimentReport::new("F1", "barrier", "Prop 4.1", 9);
        r.param("n", 1000);
        r.table(sample_table());
        r.note("advantage rises at the barrier");
        let text = r.render_text();
        for needle in [
            "F1",
            "barrier",
            "Prop 4.1",
            "seed: 9",
            "n = 1000",
            "advantage",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
