//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§4, §7).
//!
//! Each `experiments::figN` function runs the corresponding workload sweep
//! on the corresponding simulated machine and returns a [`FigureResult`]
//! whose series mirror the lines/bars of the paper's figure. The
//! `figures` binary renders them as text tables and CSV files, and the
//! workspace integration tests assert the qualitative *shapes* (who wins,
//! where crossovers fall) so regressions are caught by `cargo test`. Host
//! time is measured by the separate `benchmark/` crate.

pub mod chart;
pub mod cli;
pub mod experiments;
pub mod jsonv;
pub mod memo;
pub mod metricsjson;
pub mod report;
pub mod runner;
pub mod tracefmt;

/// One line/bar series of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label ("clean", "Machine B-fast", "2 threads"...).
    pub label: String,
    /// `(x, y)` points; the meaning of the axes is figure-specific.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create a series.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), points: Vec::new() }
    }

    /// The y value at `x`, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.0 == x).map(|p| p.1)
    }

    /// The maximum y value of the series.
    pub fn y_max(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max)
    }
}

/// The regenerated data of one table/figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier ("fig3a", "table2", ...).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The data series.
    pub series: Vec<Series>,
    /// Free-form notes (paper-vs-measured commentary, caveats).
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Create an empty figure.
    pub fn new(id: &'static str, title: impl Into<String>, x: impl Into<String>, y: impl Into<String>) -> Self {
        Self {
            id,
            title: title.into(),
            x_label: x.into(),
            y_label: y.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The series with the given label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("{:>12}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("  {:>18}", s.label));
        }
        out.push('\n');
        let xs: Vec<f64> = {
            let mut xs: Vec<f64> =
                self.series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            xs.dedup();
            xs
        };
        for x in xs {
            out.push_str(&format!("{x:>12.1}"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!("  {y:>18.3}")),
                    None => out.push_str(&format!("  {:>18}", "-")),
                }
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Render as CSV (`x,label,y` rows).
    pub fn render_csv(&self) -> String {
        let mut out = String::from("x,series,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                out.push_str(&format!("{x},{},{y}\n", s.label));
            }
        }
        out
    }

    /// Render as JSON.
    pub fn render_json(&self) -> String {
        serde_json_lite(self)
    }
}

/// Minimal JSON serializer for [`FigureResult`] (the structure is strings
/// and f64 pairs only, so no external JSON dependency is needed).
fn serde_json_lite(fig: &FigureResult) -> String {
    let esc = simcore::stats::json_escape;
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"x_label\": \"{}\",\n  \"y_label\": \"{}\",\n  \"series\": [",
        esc(fig.id), esc(&fig.title), esc(&fig.x_label), esc(&fig.y_label)
    ));
    for (i, s) in fig.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {{\"label\": \"{}\", \"points\": [", esc(&s.label)));
        for (j, (x, y)) in s.points.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{x}, {y}]"));
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n  \"notes\": [");
    for (i, n) in fig.notes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", esc(n)));
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonv::Json;

    #[test]
    fn series_accessors() {
        let mut s = Series::new("clean");
        s.points.push((64.0, 1.5));
        s.points.push((128.0, 2.5));
        assert_eq!(s.y_at(64.0), Some(1.5));
        assert_eq!(s.y_at(999.0), None);
        assert_eq!(s.y_max(), 2.5);
    }

    #[test]
    fn figure_renders_all_series() {
        let mut f = FigureResult::new("figX", "Test", "size", "speedup");
        let mut a = Series::new("a");
        a.points.push((1.0, 2.0));
        let mut b = Series::new("b");
        b.points.push((1.0, 3.0));
        f.series.push(a);
        f.series.push(b);
        f.notes.push("hello".into());
        let text = f.render_text();
        assert!(text.contains("figX"));
        assert!(text.contains("2.000"));
        assert!(text.contains("3.000"));
        assert!(text.contains("note: hello"));
        let csv = f.render_csv();
        assert!(csv.contains("1,a,2"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let mut f = FigureResult::new("figY", "Title \"quoted\"", "x", "y");
        let mut a = Series::new("base\nline");
        a.points.push((1.0, 2.5));
        f.series.push(a);
        f.notes.push("a note".into());
        let json = f.render_json();
        assert!(json.contains("\"id\": \"figY\""));
        assert!(json.contains("[1, 2.5]"));
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("base\\nline"), "{json}");
        assert!(json.contains("\"a note\""));
    }

    #[test]
    fn json_with_control_characters_parses_back() {
        let mut f = FigureResult::new("figZ", "T", "x", "y");
        f.series.push(Series::new("tab\there"));
        f.notes.push("bell\u{7}".into());
        let json = f.render_json();
        let parsed = jsonv::Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        let series = parsed.get("series").and_then(Json::as_arr).expect("series");
        assert_eq!(series[0].get("label").and_then(Json::as_str), Some("tab\there"));
        let notes = parsed.get("notes").and_then(Json::as_arr).expect("notes");
        assert_eq!(notes[0].as_str(), Some("bell\u{7}"));
    }
}
