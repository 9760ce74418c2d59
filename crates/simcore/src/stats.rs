//! Small formatting helpers shared by the simulator and DirtBuster
//! reports.

/// Format a byte count the way the paper's reports do ("240B", "2.1MB").
///
/// # Examples
///
/// ```
/// assert_eq!(simcore::stats::fmt_bytes(240), "240B");
/// assert_eq!(simcore::stats::fmt_bytes(2_202_009), "2.1MB");
/// ```
pub fn fmt_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KB {
        format!("{bytes}B")
    } else if b < KB * KB {
        format!("{:.1}KB", b / KB)
    } else if b < KB * KB * KB {
        format!("{:.1}MB", b / KB / KB)
    } else {
        format!("{:.1}GB", b / KB / KB / KB)
    }
}

/// Escape `s` for the inside of a JSON string literal: the quote, the
/// backslash and every control character, so any label or site name
/// renders as valid JSON.
///
/// # Examples
///
/// ```
/// let escaped = simcore::stats::json_escape("a\"b\\c\nd\te\u{1}");
/// assert_eq!(escaped, r#"a\"b\\c\nd\te\u0001"#);
/// ```
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an instruction distance ("23.8K", "inf" for never).
pub fn fmt_distance(d: Option<f64>) -> String {
    match d {
        None => "inf".to_owned(),
        Some(x) if x >= 1e6 => format!("{:.1}M", x / 1e6),
        Some(x) if x >= 1e3 => format!("{:.1}K", x / 1e3),
        Some(x) => format!("{x:.0}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(1023), "1023B");
        assert_eq!(fmt_bytes(1024), "1.0KB");
        assert_eq!(fmt_bytes(16 * 1024 * 1024), "16.0MB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 * 1024), "3.0GB");
    }

    #[test]
    fn distance_formatting() {
        assert_eq!(fmt_distance(None), "inf");
        assert_eq!(fmt_distance(Some(2.0)), "2");
        assert_eq!(fmt_distance(Some(23_800.0)), "23.8K");
        assert_eq!(fmt_distance(Some(2_000_000.0)), "2.0M");
    }
}
