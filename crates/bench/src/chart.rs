//! Terminal chart rendering for [`FigureResult`]s:
//! the `figures` binary can show each reproduced figure as an ASCII line
//! chart, which makes the *shapes* — the whole point of the reproduction —
//! visible at a glance.

use crate::FigureResult;

/// Plot height in character rows.
const ROWS: usize = 16;

/// Plot width in character columns.
const COLS: usize = 64;

/// Markers assigned to series, in order.
const MARKS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

/// Render `fig` as an ASCII chart (one mark per series, linear axes).
///
/// Returns an empty string for figures without points.
pub fn render_chart(fig: &FigureResult) -> String {
    let points: Vec<(f64, f64)> =
        fig.series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if points.is_empty() {
        return String::new();
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &points {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    // Include zero on the y axis when it is nearby: improvement charts
    // read better anchored at 0.
    if ymin > 0.0 && ymin < 0.5 * ymax {
        ymin = 0.0;
    }
    if (ymax - ymin).abs() < f64::EPSILON {
        ymax = ymin + 1.0;
    }
    if (xmax - xmin).abs() < f64::EPSILON {
        xmax = xmin + 1.0;
    }

    let mut grid = vec![vec![' '; COLS]; ROWS];
    for (si, s) in fig.series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (COLS - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (ROWS - 1) as f64).round() as usize;
            let row = ROWS - 1 - cy.min(ROWS - 1);
            let col = cx.min(COLS - 1);
            // Later series win collisions; that is fine for a glance.
            grid[row][col] = mark;
        }
    }

    let mut out = String::new();
    out.push_str(&format!("{} — {}\n", fig.id, fig.title));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{ymax:>10.2} |")
        } else if i == ROWS - 1 {
            format!("{ymin:>10.2} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>11}+{}\n", "", "-".repeat(COLS)));
    out.push_str(&format!("{:>12}{:<.6} .. {:.6}  ({})\n", "", xmin, xmax, fig.x_label));
    for (si, s) in fig.series.iter().enumerate() {
        out.push_str(&format!("{:>12}{} = {}\n", "", MARKS[si % MARKS.len()], s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Series;

    fn fig() -> FigureResult {
        let mut f = FigureResult::new("t", "test figure", "x", "y");
        let mut a = Series::new("rising");
        for i in 0..10 {
            a.points.push((i as f64, i as f64 * 2.0));
        }
        let mut b = Series::new("flat");
        for i in 0..10 {
            b.points.push((i as f64, 5.0));
        }
        f.series.push(a);
        f.series.push(b);
        f
    }

    #[test]
    fn chart_contains_marks_and_legend() {
        let text = render_chart(&fig());
        assert!(text.contains('*'), "{text}");
        assert!(text.contains('o'), "{text}");
        assert!(text.contains("* = rising"));
        assert!(text.contains("o = flat"));
        assert!(text.contains("test figure"));
    }

    #[test]
    fn empty_figure_renders_empty() {
        let f = FigureResult::new("e", "empty", "x", "y");
        assert!(render_chart(&f).is_empty());
    }

    #[test]
    fn single_point_does_not_divide_by_zero() {
        let mut f = FigureResult::new("p", "point", "x", "y");
        let mut s = Series::new("dot");
        s.points.push((3.0, 7.0));
        f.series.push(s);
        let text = render_chart(&f);
        assert!(text.contains('*'));
    }

    #[test]
    fn rising_series_occupies_both_corners() {
        let text = render_chart(&fig());
        let lines: Vec<&str> = text.lines().collect();
        // First grid row (max y) has a mark near the right edge; the last
        // grid row has one near the left edge.
        let top = lines[1];
        let bottom = lines[ROWS];
        assert!(top.trim_end().ends_with('*'), "top row: {top:?}");
        let lead = bottom.split('|').nth(1).unwrap_or("");
        assert!(
            lead.find(['*', 'o']).is_some_and(|p| p < COLS / 2),
            "bottom row: {bottom:?}"
        );
    }
}
