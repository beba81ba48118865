//! The f32 quantization gate: decides whether a quantized serving artifact
//! is faithful enough to publish.
//!
//! Quantizing a trained fold to f32 (`EspModel::quantize`) perturbs every
//! probability; what matters in Table-4 terms is how often a perturbation
//! crosses the 0.5 decision threshold — a **prediction flip** — and what
//! that does to the fold's miss rate. The gate scores each leave-one-out
//! fold's f32 model against its f64 reference on the held-out program's
//! branch sites, counts flips, measures the f32 miss rate with the same
//! accounting as the table, and refuses to publish any fold whose flip
//! rate exceeds a configurable bound. The overall verdict
//! ([`QuantGateReport::passes`]) gates CI: `repro_tables --precision f32`
//! exits nonzero when the pooled flip rate is over the bound.

use std::path::PathBuf;

/// Gate configuration (`--precision f32` options on `repro_tables`).
#[derive(Debug, Clone)]
pub struct QuantGateConfig {
    /// Maximum tolerated flip rate (flipped predictions / scored sites),
    /// applied per fold for publishing and pooled for the overall verdict.
    pub flip_bound: f64,
    /// Registry root to publish passing folds into (as
    /// `table4-<lang>-fold<i>-f32`, version 1); `None` = report only.
    pub publish: Option<PathBuf>,
}

impl Default for QuantGateConfig {
    fn default() -> Self {
        QuantGateConfig {
            flip_bound: 0.02,
            publish: None,
        }
    }
}

/// What happened to one fold's f32 artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum PublishOutcome {
    /// No registry configured; the gate only reported.
    NotRequested,
    /// Fold flip rate was within the bound; artifact written here.
    Published(PathBuf),
    /// Fold flip rate exceeded the bound; nothing was written.
    Refused,
    /// The registry write itself failed (the error string).
    Failed(String),
}

/// One fold's f32-vs-f64 comparison on its held-out program.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldQuantReport {
    /// Fold artifact name (`table4-<lang>-fold<i>-f32`).
    pub name: String,
    /// Held-out benchmark the fold was scored on.
    pub bench: String,
    /// Branch sites scored.
    pub sites: usize,
    /// Predictions that crossed the 0.5 threshold under quantization.
    pub flips: usize,
    /// The fold's Table-4 ESP miss rate at f64 (the published number).
    pub miss_f64: f64,
    /// The same miss rate served from the f32 model.
    pub miss_f32: f64,
    /// Publish decision for this fold.
    pub outcome: PublishOutcome,
}

impl FoldQuantReport {
    /// Flipped predictions as a fraction of scored sites (0 when the fold
    /// scored no sites).
    pub fn flip_rate(&self) -> f64 {
        flip_rate(self.flips, self.sites)
    }
}

/// Flips over sites, `0.0` when nothing was scored.
pub fn flip_rate(flips: usize, sites: usize) -> f64 {
    if sites == 0 {
        0.0
    } else {
        flips as f64 / sites as f64
    }
}

/// The per-fold publish decision: within the bound ⇒ publish.
pub fn within_bound(flips: usize, sites: usize, bound: f64) -> bool {
    flip_rate(flips, sites) <= bound
}

/// The whole study's gate verdict: every fold's comparison plus the pooled
/// flip rate and Table-4 miss-rate delta.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantGateReport {
    /// The bound the gate ran under.
    pub flip_bound: f64,
    /// Per-fold comparisons, in fold order.
    pub folds: Vec<FoldQuantReport>,
}

impl QuantGateReport {
    /// Sites scored across all folds.
    pub fn total_sites(&self) -> usize {
        self.folds.iter().map(|f| f.sites).sum()
    }

    /// Flips across all folds.
    fn total_flips(&self) -> usize {
        self.folds.iter().map(|f| f.flips).sum()
    }

    /// Pooled flip rate over every scored site.
    pub fn flip_rate(&self) -> f64 {
        flip_rate(self.total_flips(), self.total_sites())
    }

    /// Mean f32 miss rate minus mean f64 miss rate over the folds — the
    /// Table-4 cost of serving at f32 (positive = f32 mispredicts more).
    fn miss_delta(&self) -> f64 {
        if self.folds.is_empty() {
            return 0.0;
        }
        let n = self.folds.len() as f64;
        let f32_mean: f64 = self.folds.iter().map(|f| f.miss_f32).sum::<f64>() / n;
        let f64_mean: f64 = self.folds.iter().map(|f| f.miss_f64).sum::<f64>() / n;
        f32_mean - f64_mean
    }

    /// The CI verdict: pooled flip rate within the bound.
    pub fn passes(&self) -> bool {
        self.flip_rate() <= self.flip_bound
    }

    /// Human-readable (and grep-stable: `f32_flip_rate=`) gate summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "f32 quantization gate (flip bound {:.4}):\n",
            self.flip_bound
        );
        for f in &self.folds {
            let outcome = match &f.outcome {
                PublishOutcome::NotRequested => "-".to_string(),
                PublishOutcome::Published(p) => format!("published {}", p.display()),
                PublishOutcome::Refused => format!(
                    "REFUSED (fold flip rate {:.4} > {:.4})",
                    f.flip_rate(),
                    self.flip_bound
                ),
                PublishOutcome::Failed(e) => format!("publish failed: {e}"),
            };
            out.push_str(&format!(
                "  {} ({}): sites={} flips={} miss f64={:.4} f32={:.4}  {}\n",
                f.name, f.bench, f.sites, f.flips, f.miss_f64, f.miss_f32, outcome
            ));
        }
        out.push_str(&format!(
            "  f32_flip_rate={:.6} ({} of {} predictions flipped)\n",
            self.flip_rate(),
            self.total_flips(),
            self.total_sites()
        ));
        out.push_str(&format!(
            "  table4_miss_delta={:+.6} (mean f32 miss - mean f64 miss)\n",
            self.miss_delta()
        ));
        out.push_str(&format!(
            "  gate: {} ({:.6} vs bound {:.4})\n",
            if self.passes() { "PASS" } else { "FAIL" },
            self.flip_rate(),
            self.flip_bound
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(sites: usize, flips: usize, m64: f64, m32: f64) -> FoldQuantReport {
        FoldQuantReport {
            name: "table4-c-fold0-f32".into(),
            bench: "sort".into(),
            sites,
            flips,
            miss_f64: m64,
            miss_f32: m32,
            outcome: PublishOutcome::NotRequested,
        }
    }

    #[test]
    fn flip_rate_handles_empty_folds() {
        assert_eq!(flip_rate(0, 0), 0.0);
        assert_eq!(flip_rate(3, 100), 0.03);
        assert_eq!(fold(0, 0, 0.0, 0.0).flip_rate(), 0.0);
    }

    #[test]
    fn bound_is_inclusive() {
        assert!(within_bound(2, 100, 0.02));
        assert!(!within_bound(3, 100, 0.02));
        assert!(within_bound(0, 0, 0.0), "no sites: trivially within");
    }

    #[test]
    fn report_pools_across_folds() {
        let r = QuantGateReport {
            flip_bound: 0.02,
            folds: vec![fold(100, 1, 0.10, 0.11), fold(300, 3, 0.20, 0.19)],
        };
        assert_eq!(r.total_sites(), 400);
        assert_eq!(r.total_flips(), 4);
        assert!((r.flip_rate() - 0.01).abs() < 1e-12);
        // mean f32 (0.15) - mean f64 (0.15) = 0
        assert!(r.miss_delta().abs() < 1e-12);
        assert!(r.passes());
    }

    #[test]
    fn gate_fails_over_the_bound_and_render_is_greppable() {
        let r = QuantGateReport {
            flip_bound: 0.02,
            folds: vec![fold(100, 5, 0.10, 0.16)],
        };
        assert!(!r.passes());
        assert!((r.miss_delta() - 0.06).abs() < 1e-12);
        let text = r.render();
        assert!(text.contains("f32_flip_rate=0.050000"));
        assert!(text.contains("table4_miss_delta=+0.060000"));
        assert!(text.contains("gate: FAIL"));
    }

    #[test]
    fn empty_report_passes() {
        let r = QuantGateReport {
            flip_bound: 0.0,
            folds: vec![],
        };
        assert!(r.passes());
        assert_eq!(r.miss_delta(), 0.0);
        assert!(r.render().contains("f32_flip_rate=0.000000"));
        assert!(r.render().contains("gate: PASS"));
    }

    #[test]
    fn refusal_renders_loudly() {
        let mut f = fold(100, 5, 0.1, 0.2);
        f.outcome = PublishOutcome::Refused;
        let r = QuantGateReport {
            flip_bound: 0.02,
            folds: vec![f],
        };
        assert!(r.render().contains("REFUSED"));
    }
}
