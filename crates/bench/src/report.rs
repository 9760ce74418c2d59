//! Self-contained HTML reports: time-series charts, tail-latency tables
//! and site-attribution heatmaps, with every chart rendered as inline
//! SVG — no JavaScript, no external assets, no dependencies. The output
//! of `figures --report` / `kv_serving --report` is one file that opens
//! anywhere and diffs cleanly, because everything in it is a pure
//! function of deterministic simulation results.

use crate::FigureResult;
use machine::{ts_channel, RunStats, TsWindow};
use simcore::telemetry::Histogram;
use simcore::FuncRegistry;

/// Chart plot width in SVG user units.
const CHART_W: f64 = 640.0;

/// Chart plot height in SVG user units.
const CHART_H: f64 = 220.0;

/// Left/bottom margin for axis labels.
const MARGIN: f64 = 56.0;

/// Series stroke palette (cycled).
const PALETTE: [&str; 6] = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"];

/// Escape text for HTML element content and attribute values.
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// An HTML report under construction: a titled sequence of sections.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    sections: Vec<String>,
}

impl Report {
    /// Start an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), sections: Vec::new() }
    }

    /// Number of sections added so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether no section has been added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Add a free-form note paragraph.
    pub fn add_note(&mut self, text: &str) {
        self.sections.push(format!("<p class=\"note\">{}</p>\n", html_escape(text)));
    }

    /// Add one reproduced figure as an SVG line chart plus its notes.
    pub fn add_figure(&mut self, fig: &FigureResult) {
        let series: Vec<(String, Vec<(f64, f64)>)> =
            fig.series.iter().map(|s| (s.label.clone(), s.points.clone())).collect();
        let mut html = format!(
            "<h2>{} — {}</h2>\n{}",
            html_escape(fig.id),
            html_escape(&fig.title),
            svg_line_chart(&series, &fig.x_label, &fig.y_label)
        );
        for n in &fig.notes {
            html.push_str(&format!("<p class=\"note\">{}</p>\n", html_escape(n)));
        }
        self.sections.push(html);
    }

    /// Add the engine's sampled time-series: one chart per channel, all on
    /// the shared simulated-cycle axis. `dropped` is the count of windows
    /// evicted by the bounded ring (0 = complete coverage).
    pub fn add_timeseries(&mut self, title: &str, windows: &[TsWindow], window_cycles: u64) {
        let mut html = format!("<h2>{}</h2>\n", html_escape(title));
        if windows.is_empty() {
            html.push_str("<p class=\"note\">no samples (timeseries window not armed)</p>\n");
            self.sections.push(html);
            return;
        }
        html.push_str(&format!(
            "<p class=\"note\">{} windows of {} simulated cycles each</p>\n",
            windows.len(),
            window_cycles
        ));
        for (ch, name) in ts_channel::NAMES.iter().enumerate() {
            let points: Vec<(f64, f64)> =
                windows.iter().map(|w| (w.start as f64, w.values[ch] as f64)).collect();
            if points.iter().all(|p| p.1 == 0.0) {
                continue; // an all-zero channel (e.g. prestores in mode none) is noise
            }
            html.push_str(&format!("<h3>{}</h3>\n", html_escape(name)));
            html.push_str(&svg_line_chart(
                &[((*name).to_owned(), points)],
                "simulated cycles",
                "per window",
            ));
        }
        self.sections.push(html);
    }

    /// Add a tail-latency table: one row per request-class histogram with
    /// count, mean and the p50/p90/p99/p99.9 percentiles in simulated
    /// cycles, plus a merged `all` row when more than one class exists.
    pub fn add_latency_table(&mut self, title: &str, classes: &[Histogram]) {
        let mut html = format!("<h2>{}</h2>\n", html_escape(title));
        if classes.iter().all(|h| h.count == 0) {
            html.push_str("<p class=\"note\">no classified requests</p>\n");
            self.sections.push(html);
            return;
        }
        html.push_str(
            "<table><tr><th>class</th><th>requests</th><th>mean</th>\
             <th>p50</th><th>p90</th><th>p99</th><th>p99.9</th><th>max</th></tr>\n",
        );
        let mut all = Histogram::new("all");
        for h in classes {
            all.merge(h);
            html.push_str(&latency_row(h));
        }
        if classes.len() > 1 {
            html.push_str(&latency_row(&all));
        }
        html.push_str("</table>\n");
        self.sections.push(html);
    }

    /// Add the ranked site-attribution heatmap: the top `top` sites by
    /// device media bytes, each with heat bars for its share of media
    /// bytes and stall cycles.
    pub fn add_site_heatmap(
        &mut self,
        title: &str,
        stats: &RunStats,
        registry: &FuncRegistry,
        top: usize,
    ) {
        let scores = stats.site_scores();
        let mut html = format!("<h2>{}</h2>\n", html_escape(title));
        if scores.is_empty() {
            html.push_str("<p class=\"note\">no attributed device traffic or stalls</p>\n");
            self.sections.push(html);
            return;
        }
        let max_bytes = scores.iter().map(|s| s.media_bytes).max().unwrap_or(0).max(1);
        let max_stalls = scores.iter().map(|s| s.stall_cycles).max().unwrap_or(0).max(1);
        html.push_str(
            "<table><tr><th>site</th><th>media bytes</th><th></th>\
             <th>stall cycles</th><th></th></tr>\n",
        );
        for s in scores.iter().take(top) {
            let name = format!("{} ({})", registry.name(s.func), registry.location(s.func));
            html.push_str(&format!(
                "<tr><td>{}</td><td class=\"num\">{}</td><td>{}</td>\
                 <td class=\"num\">{}</td><td>{}</td></tr>\n",
                html_escape(&name),
                s.media_bytes,
                heat_bar(s.media_bytes as f64 / max_bytes as f64),
                s.stall_cycles,
                heat_bar(s.stall_cycles as f64 / max_stalls as f64),
            ));
        }
        html.push_str("</table>\n");
        self.sections.push(html);
    }

    /// Render the whole report as one self-contained HTML document.
    pub fn render(&self) -> String {
        let mut out = String::from("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
        out.push_str(&format!("<title>{}</title>\n", html_escape(&self.title)));
        out.push_str(
            "<style>\n\
             body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 60em; }\n\
             h1 { border-bottom: 2px solid #444; }\n\
             h2 { margin-top: 2em; border-bottom: 1px solid #bbb; }\n\
             table { border-collapse: collapse; }\n\
             th, td { border: 1px solid #ccc; padding: 0.25em 0.7em; text-align: left; }\n\
             td.num { text-align: right; font-variant-numeric: tabular-nums; }\n\
             .note { color: #555; }\n\
             svg { background: #fcfcfc; border: 1px solid #ddd; }\n\
             </style></head><body>\n",
        );
        out.push_str(&format!("<h1>{}</h1>\n", html_escape(&self.title)));
        for s in &self.sections {
            out.push_str(s);
        }
        out.push_str("</body></html>\n");
        out
    }
}

fn latency_row(h: &Histogram) -> String {
    format!(
        "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{:.1}</td>\
         <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
         <td class=\"num\">{}</td><td class=\"num\">{}</td></tr>\n",
        html_escape(h.name),
        h.count,
        h.mean(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999(),
        h.max,
    )
}

/// A fixed-width inline heat bar whose fill and hue encode `frac` ∈ [0, 1].
fn heat_bar(frac: f64) -> String {
    let frac = frac.clamp(0.0, 1.0);
    let w = (frac * 120.0).round();
    // Cold (blue-ish) → hot (red): interpolate the hue.
    let hue = (210.0 * (1.0 - frac)).round();
    format!(
        "<svg width=\"124\" height=\"12\"><rect x=\"1\" y=\"1\" width=\"{w:.0}\" height=\"10\" \
         fill=\"hsl({hue:.0}, 75%, 50%)\"/></svg>"
    )
}

/// Render labelled series as one inline SVG line chart with axis labels,
/// min/max tick annotations and a legend. Returns a placeholder paragraph
/// when no series has any point.
pub fn svg_line_chart(series: &[(String, Vec<(f64, f64)>)], x_label: &str, y_label: &str) -> String {
    let points: Vec<(f64, f64)> = series.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    if points.is_empty() {
        return String::from("<p class=\"note\">no data points</p>\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &points {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    // Anchor near-zero ranges at 0, and widen degenerate ranges so the
    // scale transform below never divides by zero.
    if ymin > 0.0 && ymin < 0.5 * ymax {
        ymin = 0.0;
    }
    if (ymax - ymin).abs() < f64::EPSILON {
        ymax = ymin + 1.0;
    }
    if (xmax - xmin).abs() < f64::EPSILON {
        xmax = xmin + 1.0;
    }
    let sx = |x: f64| MARGIN + (x - xmin) / (xmax - xmin) * CHART_W;
    let sy = |y: f64| 8.0 + CHART_H - (y - ymin) / (ymax - ymin) * CHART_H;
    let total_w = MARGIN + CHART_W + 8.0;
    let total_h = CHART_H + MARGIN;

    let mut out = format!(
        "<svg viewBox=\"0 0 {total_w:.0} {total_h:.0}\" width=\"{total_w:.0}\" \
         height=\"{total_h:.0}\" xmlns=\"http://www.w3.org/2000/svg\">\n"
    );
    // Axes.
    out.push_str(&format!(
        "<line x1=\"{m:.1}\" y1=\"{t:.1}\" x2=\"{m:.1}\" y2=\"{b:.1}\" stroke=\"#444\"/>\n\
         <line x1=\"{m:.1}\" y1=\"{b:.1}\" x2=\"{r:.1}\" y2=\"{b:.1}\" stroke=\"#444\"/>\n",
        m = MARGIN,
        t = 8.0,
        b = 8.0 + CHART_H,
        r = MARGIN + CHART_W,
    ));
    // Tick labels: y extremes on the left, x extremes below.
    out.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\">{}</text>\n\
         <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\">{}</text>\n\
         <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\">{}</text>\n\
         <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\">{}</text>\n\
         <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\">{}</text>\n",
        MARGIN - 4.0,
        14.0,
        fmt_tick(ymax),
        MARGIN - 4.0,
        8.0 + CHART_H,
        fmt_tick(ymin),
        MARGIN,
        8.0 + CHART_H + 14.0,
        fmt_tick(xmin),
        MARGIN + CHART_W,
        8.0 + CHART_H + 14.0,
        fmt_tick(xmax),
        MARGIN + CHART_W / 2.0,
        8.0 + CHART_H + 14.0,
        html_escape(x_label),
    ));
    // Rotated y label.
    out.push_str(&format!(
        "<text x=\"12\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\" \
         transform=\"rotate(-90 12 {:.1})\">{}</text>\n",
        8.0 + CHART_H / 2.0,
        8.0 + CHART_H / 2.0,
        html_escape(y_label),
    ));
    // One polyline (or lone circle) per series, plus a legend row.
    for (si, (label, pts)) in series.iter().enumerate() {
        let color = PALETTE[si % PALETTE.len()];
        if pts.len() == 1 {
            out.push_str(&format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{color}\"/>\n",
                sx(pts[0].0),
                sy(pts[0].1)
            ));
        } else if !pts.is_empty() {
            let coords: Vec<String> =
                pts.iter().map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y))).collect();
            out.push_str(&format!(
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>\n",
                coords.join(" ")
            ));
        }
        let ly = 8.0 + CHART_H + 30.0 + si as f64 * 14.0;
        out.push_str(&format!(
            "<rect x=\"{m:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\">{}</text>\n",
            ly - 9.0,
            MARGIN + 14.0,
            ly,
            html_escape(label),
            m = MARGIN,
        ));
    }
    out.push_str("</svg>\n");
    out
}

/// Compact tick formatting: integers as integers, everything else short.
fn fmt_tick(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Series;

    fn fig() -> FigureResult {
        let mut f = FigureResult::new("figX", "speedup <over> baseline", "size", "x");
        let mut s = Series::new("clean & tidy");
        for i in 0..8 {
            s.points.push((i as f64, (i * i) as f64));
        }
        f.series.push(s);
        f.notes.push("a note".into());
        f
    }

    #[test]
    fn report_renders_escaped_self_contained_html() {
        let mut r = Report::new("Run <report>");
        assert!(r.is_empty());
        r.add_figure(&fig());
        r.add_note("plain note");
        assert_eq!(r.len(), 2);
        let html = r.render();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Run &lt;report&gt;"));
        assert!(html.contains("speedup &lt;over&gt; baseline"));
        assert!(html.contains("clean &amp; tidy"));
        assert!(html.contains("<polyline"));
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http-equiv"));
        assert!(!html.contains("<script"));
        assert!(!html.contains("href="));
    }

    #[test]
    fn latency_table_lists_percentiles_and_merged_all_row() {
        let mut hot = Histogram::new("get_hot");
        let mut cold = Histogram::new("get_cold");
        for i in 1..=100 {
            hot.record(i);
            cold.record(i * 10);
        }
        let mut r = Report::new("t");
        r.add_latency_table("Tail latency", &[hot.clone(), cold]);
        let html = r.render();
        assert!(html.contains("get_hot"));
        assert!(html.contains("get_cold"));
        assert!(html.contains("<td>all</td>"));
        assert!(html.contains(&format!("<td class=\"num\">{}</td>", hot.p999())));
    }

    #[test]
    fn empty_latency_table_degrades_to_a_note() {
        let mut r = Report::new("t");
        r.add_latency_table("Tail latency", &[Histogram::new("op")]);
        assert!(r.render().contains("no classified requests"));
    }

    #[test]
    fn timeseries_section_charts_active_channels_only() {
        let windows: Vec<TsWindow> = (0..4)
            .map(|i| {
                let mut v = [0u64; machine::TS_CHANNELS];
                v[ts_channel::STEPS] = 100 + i;
                v[ts_channel::READ_LINES] = 7 * i;
                TsWindow { start: i * 500, values: v }
            })
            .collect();
        let mut r = Report::new("t");
        r.add_timeseries("Temporal profile", &windows, 500);
        let html = r.render();
        assert!(html.contains("<h3>steps</h3>"));
        assert!(html.contains("<h3>read_lines</h3>"));
        // prestores stayed zero throughout: no chart for it.
        assert!(!html.contains("<h3>prestores</h3>"));
        assert!(html.contains("4 windows of 500 simulated cycles each"));
    }

    #[test]
    fn chart_handles_single_point_and_empty_series() {
        let svg = svg_line_chart(&[("dot".into(), vec![(3.0, 7.0)])], "x", "y");
        assert!(svg.contains("<circle"));
        let none = svg_line_chart(&[], "x", "y");
        assert!(none.contains("no data points"));
    }
}
