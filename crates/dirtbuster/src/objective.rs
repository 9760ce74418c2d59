//! Scoring objectives for the closed-loop policy search (`--auto`).
//!
//! The search minimizes a scalar read off a replay's [`RunStats`] — the
//! same per-site attribution the advisor's Table-3 view prints. Only
//! *attributed* quantities count (the [`simcore::FuncId::UNKNOWN`]
//! catch-all row is excluded): the search flips per-site decisions, so it
//! must be scored on the traffic it can actually influence.

use machine::RunStats;

/// What `dirtbuster --auto` minimizes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Objective {
    /// Attributed device media bytes written — the paper's
    /// write-amplification currency (default).
    #[default]
    MediaBytes,
    /// Attributed stall cycles (fence + atomic + store-buffer +
    /// writeback-wait).
    StallCycles,
    /// `media_weight * media_bytes + stall_weight * stall_cycles`.
    Blend {
        /// Weight on attributed media bytes.
        media_weight: f64,
        /// Weight on attributed stall cycles.
        stall_weight: f64,
    },
}

impl Objective {
    /// The scalar to minimize for `stats` (lower is better).
    pub fn score(&self, stats: &RunStats) -> f64 {
        let media = stats.attributed_media_bytes() as f64;
        let stalls = stats.attributed_stall_cycles() as f64;
        match *self {
            Self::MediaBytes => media,
            Self::StallCycles => stalls,
            Self::Blend { media_weight, stall_weight } => {
                media_weight * media + stall_weight * stalls
            }
        }
    }

    /// Parse a CLI objective spec: `media`, `stalls`, or `blend:MW,SW`
    /// (e.g. `blend:1,0.001`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names, malformed
    /// blend weights, or non-finite/negative weights.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "media" => return Ok(Self::MediaBytes),
            "stalls" => return Ok(Self::StallCycles),
            _ => {}
        }
        let Some(weights) = text.strip_prefix("blend:") else {
            return Err(format!(
                "unknown objective {text:?}: expected media, stalls, or blend:MW,SW"
            ));
        };
        let parts: Vec<&str> = weights.split(',').collect();
        let [mw, sw] = parts.as_slice() else {
            return Err(format!("blend needs exactly two weights, got {weights:?}"));
        };
        let parse_w = |s: &str| -> Result<f64, String> {
            let w: f64 =
                s.trim().parse().map_err(|e| format!("cannot parse blend weight {s:?}: {e}"))?;
            if !w.is_finite() || w < 0.0 {
                return Err(format!("blend weight {s:?} must be finite and non-negative"));
            }
            Ok(w)
        };
        Ok(Self::Blend { media_weight: parse_w(mw)?, stall_weight: parse_w(sw)? })
    }

    /// Short human-readable description for the convergence trace header.
    pub fn describe(&self) -> String {
        match *self {
            Self::MediaBytes => "attributed media bytes".to_owned(),
            Self::StallCycles => "attributed stall cycles".to_owned(),
            Self::Blend { media_weight, stall_weight } => {
                format!("{media_weight}*media_bytes + {stall_weight}*stall_cycles")
            }
        }
    }

    /// Render a score deterministically: integral objectives (media,
    /// stalls) print as integers, blends keep three decimals.
    pub fn fmt_score(&self, score: f64) -> String {
        match self {
            Self::MediaBytes | Self::StallCycles => format!("{score:.0}"),
            Self::Blend { .. } => format!("{score:.3}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{SiteCounters, SiteScore};
    use simcore::FuncId;

    fn stats_with(media: u64, fence_stall: u64) -> RunStats {
        RunStats {
            cycles: 1,
            cpu_cycles: 1,
            media_busy_cycles: 0,
            cores: Vec::new(),
            l1: Default::default(),
            llc: Default::default(),
            device: Default::default(),
            timeseries: Vec::new(),
            timeseries_window_cycles: 0,
            request_latency: Vec::new(),
            sites: vec![
                (
                    FuncId(1),
                    SiteCounters {
                        media_bytes: media,
                        fence_stall_cycles: fence_stall,
                        ..Default::default()
                    },
                ),
                // The unattributed row must never leak into the score.
                (FuncId::UNKNOWN, SiteCounters { media_bytes: 1 << 40, ..Default::default() }),
            ],
        }
    }

    #[test]
    fn scores_read_attributed_quantities_only() {
        let s = stats_with(1000, 250);
        assert_eq!(Objective::MediaBytes.score(&s), 1000.0);
        assert_eq!(Objective::StallCycles.score(&s), 250.0);
        let blend = Objective::Blend { media_weight: 2.0, stall_weight: 0.5 };
        assert_eq!(blend.score(&s), 2.0 * 1000.0 + 0.5 * 250.0);
        assert_eq!(
            s.site_scores(),
            vec![SiteScore { func: FuncId(1), media_bytes: 1000, stall_cycles: 250 }]
        );
    }

    #[test]
    fn parse_accepts_the_cli_forms() {
        assert_eq!(Objective::parse("media"), Ok(Objective::MediaBytes));
        assert_eq!(Objective::parse("stalls"), Ok(Objective::StallCycles));
        assert_eq!(
            Objective::parse("blend:1,0.001"),
            Ok(Objective::Blend { media_weight: 1.0, stall_weight: 0.001 })
        );
        assert!(Objective::parse("latency").is_err());
        assert!(Objective::parse("blend:1").is_err());
        assert!(Objective::parse("blend:1,2,3").is_err());
        assert!(Objective::parse("blend:-1,0").is_err());
        assert!(Objective::parse("blend:NaN,0").is_err());
    }

    #[test]
    fn score_formatting_is_deterministic() {
        assert_eq!(Objective::MediaBytes.fmt_score(1234.0), "1234");
        assert_eq!(Objective::StallCycles.fmt_score(0.0), "0");
        let blend = Objective::Blend { media_weight: 1.0, stall_weight: 0.5 };
        assert_eq!(blend.fmt_score(12.3456), "12.346");
        assert_eq!(blend.describe(), "1*media_bytes + 0.5*stall_cycles");
    }
}
