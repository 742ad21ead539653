//! Plain-text reporting: aligned tables, log-log ASCII plots, SVG charts
//! and CSV text for the figures.

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                line.push_str(&format!("{:>width$}  ", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float compactly for table cells.
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let a = x.abs();
    if (1e-3..1e5).contains(&a) {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// Render several named series as a log-log ASCII chart.
///
/// Each series is a list of `(x, y)` points with positive coordinates;
/// the i-th series is drawn with the i-th marker character.
pub fn ascii_plot_loglog(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    let markers = ['*', 'o', '+', 'x', '#', '@'];
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .filter(|&(x, y)| x > 0.0 && y > 0.0)
        .collect();
    if pts.is_empty() {
        return "(no positive data to plot)".into();
    }
    let (mut x0, mut x1) = (f64::MAX, f64::MIN);
    let (mut y0, mut y1) = (f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    let (lx0, lx1) = (x0.ln(), (x1 * 1.0000001).ln());
    let (ly0, ly1) = (y0.ln(), (y1 * 1.0000001).ln());
    let xspan = (lx1 - lx0).max(1e-12);
    let yspan = (ly1 - ly0).max(1e-12);
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        let m = markers[si % markers.len()];
        for &(x, y) in s.iter() {
            if x <= 0.0 || y <= 0.0 {
                continue;
            }
            let col = (((x.ln() - lx0) / xspan) * (width - 1) as f64).round() as usize;
            let row = (((y.ln() - ly0) / yspan) * (height - 1) as f64).round() as usize;
            let r = height - 1 - row.min(height - 1);
            grid[r][col.min(width - 1)] = m;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("y: {:.3e} .. {:.3e} (log)\n", y0, y1));
    for row in grid {
        out.push('|');
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!("x: {:.3e} .. {:.3e} (log)   ", x0, x1));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("[{}] {}  ", markers[si % markers.len()], name));
    }
    out.push('\n');
    out
}

/// Print a standard bench header.
pub fn banner(title: &str) {
    let line = "=".repeat(title.len() + 8);
    println!("\n{line}\n=== {title} ===\n{line}");
}

/// Axis scaling for [`svg_plot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Log₁₀ axis (all values must be positive).
    Log,
}

fn scale_pos(v: f64, lo: f64, hi: f64, scale: Scale) -> f64 {
    match scale {
        Scale::Linear => (v - lo) / (hi - lo).max(1e-300),
        Scale::Log => (v.ln() - lo.ln()) / (hi.ln() - lo.ln()).max(1e-300),
    }
}

/// Render named series as a standalone SVG line chart (700×420). Returns
/// the SVG document.
///
/// Hand-rolled on purpose: figure regeneration must not depend on
/// plotting crates outside the approved dependency set.
pub fn svg_plot(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[(&str, &[(f64, f64)])],
    x_scale: Scale,
    y_scale: Scale,
) -> String {
    const W: f64 = 700.0;
    const H: f64 = 420.0;
    const ML: f64 = 70.0; // margins
    const MR: f64 = 20.0;
    const MT: f64 = 40.0;
    const MB: f64 = 55.0;
    let colors = [
        "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    ];

    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .filter(|&(x, y)| {
            x.is_finite()
                && y.is_finite()
                && (x_scale == Scale::Linear || x > 0.0)
                && (y_scale == Scale::Linear || y > 0.0)
        })
        .collect();
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"12\">\n\
         <rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\n"
    ));
    if pts.is_empty() {
        svg.push_str("<text x=\"20\" y=\"40\">no data</text></svg>\n");
        return svg;
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if x0 == x1 {
        x1 = x0 + 1.0;
    }
    if y0 == y1 {
        y1 = y0 * 1.5 + 1.0;
    }
    let px = |x: f64| ML + scale_pos(x, x0, x1, x_scale) * (W - ML - MR);
    let py = |y: f64| H - MB - scale_pos(y, y0, y1, y_scale) * (H - MT - MB);

    // Frame, title, axis labels.
    svg.push_str(&format!(
        "<rect x=\"{ML}\" y=\"{MT}\" width=\"{}\" height=\"{}\" fill=\"none\" stroke=\"#888\"/>\n",
        W - ML - MR,
        H - MT - MB
    ));
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"24\" text-anchor=\"middle\" font-size=\"15\">{}</text>\n",
        W / 2.0,
        xml_escape(title)
    ));
    svg.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
        W / 2.0,
        H - 12.0,
        xml_escape(x_label)
    ));
    svg.push_str(&format!(
        "<text x=\"16\" y=\"{}\" text-anchor=\"middle\" transform=\"rotate(-90 16 {})\">{}</text>\n",
        H / 2.0,
        H / 2.0,
        xml_escape(y_label)
    ));
    // Min/max tick labels.
    svg.push_str(&format!(
        "<text x=\"{ML}\" y=\"{}\" font-size=\"10\">{:.3e}</text>\n\
         <text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"end\">{:.3e}</text>\n\
         <text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"end\">{:.3e}</text>\n\
         <text x=\"{}\" y=\"{}\" font-size=\"10\" text-anchor=\"end\">{:.3e}</text>\n",
        H - MB + 14.0,
        x0,
        W - MR,
        H - MB + 14.0,
        x1,
        ML - 4.0,
        H - MB,
        y0,
        ML - 4.0,
        MT + 10.0,
        y1
    ));
    // Series.
    for (si, (name, s)) in series.iter().enumerate() {
        let color = colors[si % colors.len()];
        let path: Vec<String> = s
            .iter()
            .filter(|&&(x, y)| {
                (x_scale == Scale::Linear || x > 0.0) && (y_scale == Scale::Linear || y > 0.0)
            })
            .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
            .collect();
        if !path.is_empty() {
            svg.push_str(&format!(
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>\n",
                path.join(" ")
            ));
        }
        // Legend entry.
        let ly = MT + 16.0 + 16.0 * si as f64;
        svg.push_str(&format!(
            "<line x1=\"{}\" y1=\"{ly}\" x2=\"{}\" y2=\"{ly}\" stroke=\"{color}\" stroke-width=\"3\"/>\n\
             <text x=\"{}\" y=\"{}\" font-size=\"11\">{}</text>\n",
            ML + 8.0,
            ML + 30.0,
            ML + 36.0,
            ly + 4.0,
            xml_escape(name)
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Tabulate a recorded trace's events, one row per event — the compact
/// CSV companion to `psse_trace::Trace::to_chrome_json`. Render with
/// [`Table::render`] or [`Table::to_csv`].
pub fn trace_events_table(trace: &psse_trace::Trace) -> Table {
    use psse_sim::record::EventKind;
    let mut t = Table::new(&["rank", "t_start", "t_end", "kind", "detail"]);
    for (rank, events) in trace.events.iter().enumerate() {
        for e in events {
            let (kind, detail) = match &e.kind {
                EventKind::Compute { flops } => ("compute", format!("flops={flops}")),
                EventKind::Send { dest, tag, words } => {
                    ("send", format!("dest={dest} tag={tag} words={words}"))
                }
                EventKind::Recv {
                    src,
                    tag,
                    words,
                    msgs,
                } => (
                    "recv",
                    format!("src={src} tag={tag} words={words} msgs={msgs}"),
                ),
                EventKind::Alloc { words } => ("alloc", format!("words={words}")),
                EventKind::Free { words } => ("free", format!("words={words}")),
                EventKind::CollBegin { op } => ("coll_begin", format!("op={op}")),
                EventKind::CollEnd { op } => ("coll_end", format!("op={op}")),
                EventKind::Retry {
                    dest,
                    tag,
                    attempt,
                    words,
                    backoff,
                } => (
                    "retry",
                    format!(
                        "dest={dest} tag={tag} attempt={attempt} words={words} backoff={backoff}"
                    ),
                ),
                EventKind::LinkDelay { seconds } => ("link_delay", format!("seconds={seconds}")),
                EventKind::Checkpoint { words } => ("checkpoint", format!("words={words}")),
                EventKind::CrashRecovery { lost, restart } => {
                    ("crash_recovery", format!("lost={lost} restart={restart}"))
                }
            };
            t.row(&[
                rank.to_string(),
                sci(e.t_start),
                sci(e.t_end),
                kind.to_string(),
                detail,
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["p", "energy"]);
        t.row(&["4".into(), "1.0".into()]);
        t.row(&["1024".into(), "123.456".into()]);
        let s = t.render();
        assert!(s.contains("p"));
        assert!(s.contains("1024"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, 2 rows
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_checks_columns() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn trace_events_table_covers_every_event() {
        use psse_sim::machine::{Machine, SimConfig};
        use psse_sim::Tag;
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let out = Machine::run(2, cfg.clone(), |rank| {
            rank.compute(100);
            let v = rank.allreduce_sum(Tag(0), vec![rank.rank() as f64])?;
            Ok(v[0])
        })
        .unwrap();
        let trace = psse_trace::Trace::from_run(&cfg, &out.profile).unwrap();

        let events = trace_events_table(&trace);
        let csv = events.to_csv();
        assert_eq!(csv.lines().count(), trace.n_events() + 1);
        assert!(csv.contains("compute"));
        assert!(csv.contains("send"));
        assert!(csv.contains("recv"));
        assert!(csv.contains("coll_begin"));
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(1.5).starts_with("1.5"));
        assert!(sci(1.5e-9).contains('e'));
        assert!(sci(-2.0e12).contains('e'));
    }

    #[test]
    fn plot_contains_markers_and_bounds() {
        let s1: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        let s2: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 5.0)).collect();
        let plot = ascii_plot_loglog(&[("quad", &s1), ("flat", &s2)], 40, 10);
        assert!(plot.contains('*'));
        assert!(plot.contains('o'));
        assert!(plot.contains("quad"));
        assert!(plot.contains("flat"));
    }

    #[test]
    fn plot_handles_empty() {
        let plot = ascii_plot_loglog(&[("none", &[])], 10, 5);
        assert!(plot.contains("no positive data"));
    }

    #[test]
    fn svg_plot_contains_series_and_labels() {
        let s1: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        let s2: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 5.0)).collect();
        let svg = svg_plot(
            "W*p vs p",
            "p",
            "W*p",
            &[("classical", &s1), ("flat", &s2)],
            Scale::Log,
            Scale::Log,
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("classical"));
        assert!(svg.contains("flat"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("W*p vs p"));
    }

    #[test]
    fn svg_plot_handles_empty_and_degenerate() {
        let svg = svg_plot(
            "t",
            "x",
            "y",
            &[("none", &[])],
            Scale::Linear,
            Scale::Linear,
        );
        assert!(svg.contains("no data"));
        let one = [(2.0, 3.0)];
        let svg = svg_plot(
            "t",
            "x",
            "y",
            &[("one", &one)],
            Scale::Linear,
            Scale::Linear,
        );
        assert!(svg.contains("<polyline"));
    }

    #[test]
    fn svg_escapes_markup() {
        let pts = [(1.0, 1.0)];
        let svg = svg_plot(
            "a < b & c",
            "x",
            "y",
            &[("s", &pts)],
            Scale::Linear,
            Scale::Linear,
        );
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b & c"));
    }

    #[test]
    fn svg_log_scale_rejects_nonpositive_points() {
        let pts = [(0.0, 1.0), (1.0, 1.0), (10.0, 10.0)];
        let svg = svg_plot("t", "x", "y", &[("s", &pts)], Scale::Log, Scale::Log);
        // The polyline should only contain the two positive points.
        let poly = svg.split("<polyline points=\"").nth(1).unwrap();
        let coords = poly.split('"').next().unwrap();
        assert_eq!(coords.split(' ').count(), 2);
    }

    #[test]
    fn plot_monotone_series_fills_diagonal() {
        let s: Vec<(f64, f64)> = (0..20).map(|i| (2f64.powi(i), 2f64.powi(i))).collect();
        let plot = ascii_plot_loglog(&[("diag", &s)], 30, 10);
        // First data row (top) and last (bottom) both contain the marker.
        let rows: Vec<&str> = plot.lines().filter(|l| l.starts_with('|')).collect();
        assert!(rows.first().unwrap().contains('*'));
        assert!(rows.last().unwrap().contains('*'));
    }
}
