//! Shared output plumbing for the experiments.
//!
//! Every figure/table experiment builds a [`Report`] — sections of
//! key/value facts, one aligned table each, free-form notes — and emits
//! it once, in the format `--format` selected. The experiments keep their
//! scientific content (which jobs to run, which assertions must hold);
//! how results reach stdout lives here, in one place, for all of them.

use std::fmt::Write as _;

use bist_engine::json::Json;

/// Output format of the experiments (`--format text|json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Banner + aligned tables (the historical output).
    #[default]
    Text,
    /// One deterministic JSON document on stdout, nothing else.
    Json,
}

/// One cell of a report table.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Free text.
    Text(String),
    /// An integer count.
    Int(i64),
    /// A float, rendered with the given precision in text mode (JSON
    /// keeps the full value).
    Float(f64, usize),
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// An integer cell from any unsigned counter.
    pub fn uint(v: usize) -> Cell {
        Cell::Int(i64::try_from(v).expect("counter fits i64"))
    }

    /// A float cell shown with `precision` decimals in text mode.
    pub fn float(v: f64, precision: usize) -> Cell {
        Cell::Float(v, precision)
    }

    fn render_text(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float(v, precision) => format!("{v:.precision$}"),
        }
    }

    fn render_json(&self) -> Json {
        match self {
            Cell::Text(s) => Json::str(s.clone()),
            Cell::Int(v) => Json::Int(*v),
            Cell::Float(v, _) => Json::Float(*v),
        }
    }
}

/// A table: `(json_key, text_heading)` columns plus rows of cells.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    columns: Vec<(&'static str, &'static str)>,
    rows: Vec<Vec<Cell>>,
}

impl TableData {
    /// A table with the given `(json_key, text_heading)` columns.
    pub fn new(columns: &[(&'static str, &'static str)]) -> Self {
        TableData {
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics when the row width does not match the column count — a
    /// harness bug, not a data condition.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    fn render_text(&self, out: &mut String) {
        let mut widths: Vec<usize> = self.columns.iter().map(|(_, h)| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(i, cell)| {
                        let text = cell.render_text();
                        widths[i] = widths[i].max(text.len());
                        text
                    })
                    .collect()
            })
            .collect();
        for (i, (_, heading)) in self.columns.iter().enumerate() {
            let _ = write!(out, "{}{:>width$}", sep(i), heading, width = widths[i]);
        }
        out.push('\n');
        for row in rendered {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{}{:>width$}", sep(i), cell, width = widths[i]);
            }
            out.push('\n');
        }
    }

    fn render_json(&self) -> Json {
        Json::Array(
            self.rows
                .iter()
                .map(|row| {
                    let mut doc = Json::object();
                    for ((key, _), cell) in self.columns.iter().zip(row) {
                        doc.push(*key, cell.render_json());
                    }
                    doc
                })
                .collect(),
        )
    }
}

fn sep(column: usize) -> &'static str {
    if column == 0 {
        ""
    } else {
        "  "
    }
}

/// One section of a report — typically one circuit.
#[derive(Debug, Clone, Default)]
pub struct Section {
    title: String,
    facts: Vec<(&'static str, Json)>,
    table: Option<TableData>,
    notes: Vec<String>,
}

impl Section {
    /// A section titled `title` (usually the circuit name).
    pub fn new(title: impl Into<String>) -> Self {
        Section {
            title: title.into(),
            ..Section::default()
        }
    }

    /// Records a scalar fact (`fault_universe`, `lfsr_mm2`, …).
    pub fn fact(&mut self, key: &'static str, value: Json) -> &mut Self {
        self.facts.push((key, value));
        self
    }

    /// Attaches the section's table.
    pub fn table(&mut self, table: TableData) -> &mut Self {
        self.table = Some(table);
        self
    }

    /// Appends a free-form annotation (text mode prints it verbatim;
    /// JSON carries it in a `notes` array).
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }
}

/// A whole experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: &'static str,
    title: &'static str,
    sections: Vec<Section>,
}

impl Report {
    /// A report for `experiment` (`"fig4"`, `"table2"`, …) described by
    /// `title`.
    pub fn new(experiment: &'static str, title: &'static str) -> Self {
        Report {
            experiment,
            title,
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn section(&mut self, section: Section) -> &mut Self {
        self.sections.push(section);
        self
    }

    /// Renders the report in `format`.
    pub fn render(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Text => self.render_text(),
            OutputFormat::Json => self.render_json().render_pretty(),
        }
    }

    /// Prints the report to stdout.
    pub fn emit(&self, format: OutputFormat) {
        print!("{}", self.render(format));
    }

    fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "================================================================"
        );
        let _ = writeln!(out, "{} — {}", self.experiment, self.title);
        let _ = writeln!(out, "reproduction of Dufaza/Viallon/Chevalier, ED&TC 1995");
        let _ = writeln!(
            out,
            "================================================================"
        );
        for section in &self.sections {
            out.push('\n');
            if !section.title.is_empty() {
                let _ = writeln!(out, "=== {} ===", section.title);
            }
            for (key, value) in &section.facts {
                let _ = writeln!(out, "{key}: {}", fact_text(value));
            }
            if let Some(table) = &section.table {
                table.render_text(&mut out);
            }
            for note in &section.notes {
                let _ = writeln!(out, "{note}");
            }
        }
        out
    }

    fn render_json(&self) -> Json {
        let mut doc = Json::object();
        doc.push("experiment", Json::str(self.experiment));
        doc.push("title", Json::str(self.title));
        doc.push(
            "sections",
            Json::Array(
                self.sections
                    .iter()
                    .map(|section| {
                        let mut s = Json::object();
                        s.push("title", Json::str(section.title.clone()));
                        for (key, value) in &section.facts {
                            s.push(*key, value.clone());
                        }
                        if let Some(table) = &section.table {
                            s.push("rows", table.render_json());
                        }
                        if !section.notes.is_empty() {
                            s.push(
                                "notes",
                                Json::Array(section.notes.iter().map(Json::str).collect()),
                            );
                        }
                        s
                    })
                    .collect(),
            ),
        );
        doc
    }
}

fn fact_text(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut report = Report::new("figX", "a sample experiment");
        let mut section = Section::new("c17");
        section.fact("fault_universe", Json::Int(62));
        let mut table = TableData::new(&[("length", "length"), ("coverage_pct", "coverage %")]);
        table.row(vec![Cell::uint(0), Cell::float(0.0, 2)]);
        table.row(vec![Cell::uint(200), Cell::float(88.4, 2)]);
        section.table(table);
        section.note("ceiling: 96.7 %");
        report.section(section);
        report
    }

    #[test]
    fn text_mode_aligns_columns_under_headings() {
        let text = sample().render(OutputFormat::Text);
        assert!(text.contains("figX — a sample experiment"));
        assert!(text.contains("=== c17 ==="));
        assert!(text.contains("fault_universe: 62"));
        assert!(text.contains("length  coverage %"));
        assert!(text.contains("   200       88.40"));
        assert!(text.contains("ceiling: 96.7 %"));
    }

    #[test]
    fn json_mode_is_structured_and_parses() {
        let text = sample().render(OutputFormat::Json);
        let doc = bist_engine::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("figX"));
        let sections = doc.get("sections").and_then(Json::as_array).expect("array");
        let rows = sections[0]
            .get("rows")
            .and_then(Json::as_array)
            .expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("length").and_then(Json::as_usize), Some(200));
        assert_eq!(
            rows[1].get("coverage_pct").and_then(Json::as_f64),
            Some(88.4)
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_are_a_bug() {
        let mut table = TableData::new(&[("a", "a"), ("b", "b")]);
        table.row(vec![Cell::uint(1)]);
    }
}
