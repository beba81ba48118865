//! Probability calibration of ESP's network output.
//!
//! The paper notes the network "not only provides a prediction for each
//! branch, but also provides its estimate of the branch probability" (§6).
//! This module measures how trustworthy those probabilities are: branches
//! are bucketed by predicted probability, and each bucket's *actual*
//! execution-weighted taken-rate is compared with its mean prediction.

use esp_ir::BranchId;

use crate::data::BenchData;

/// One calibration bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Inclusive lower edge of the predicted-probability range.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last bucket).
    pub hi: f64,
    /// Mean predicted probability (weighted by executions).
    pub mean_predicted: f64,
    /// Actual taken fraction (weighted by executions).
    pub actual_taken: f64,
    /// Total branch executions in the bucket.
    pub weight: u64,
}

/// Calibration summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// The buckets, in ascending probability order. Empty buckets are kept
    /// (with `weight == 0`) so callers can plot a fixed grid.
    pub buckets: Vec<Bucket>,
    /// Expected calibration error: execution-weighted mean of
    /// `|mean_predicted − actual_taken|` over non-empty buckets.
    pub ece: f64,
}

/// Bucket the predictions of `predict_prob` over one profiled program.
///
/// # Panics
///
/// Panics if `num_buckets` is zero.
pub fn calibration(
    data: &BenchData,
    num_buckets: usize,
    predict_prob: &mut dyn FnMut(BranchId) -> f64,
) -> Calibration {
    assert!(num_buckets > 0, "need at least one bucket");
    let mut pred_sum = vec![0.0f64; num_buckets];
    let mut taken_sum = vec![0.0f64; num_buckets];
    let mut weight = vec![0u64; num_buckets];
    for site in data.prog.branch_sites() {
        let Some(c) = data.profile.counts(site) else {
            continue;
        };
        let p = predict_prob(site).clamp(0.0, 1.0);
        let idx = ((p * num_buckets as f64) as usize).min(num_buckets - 1);
        pred_sum[idx] += p * c.executed as f64;
        taken_sum[idx] += c.taken as f64;
        weight[idx] += c.executed;
    }
    let mut buckets = Vec::with_capacity(num_buckets);
    let mut ece_num = 0.0f64;
    let mut ece_den = 0.0f64;
    for i in 0..num_buckets {
        let w = weight[i];
        let (mp, at) = if w > 0 {
            (pred_sum[i] / w as f64, taken_sum[i] / w as f64)
        } else {
            (0.0, 0.0)
        };
        if w > 0 {
            ece_num += (mp - at).abs() * w as f64;
            ece_den += w as f64;
        }
        buckets.push(Bucket {
            lo: i as f64 / num_buckets as f64,
            hi: (i + 1) as f64 / num_buckets as f64,
            mean_predicted: mp,
            actual_taken: at,
            weight: w,
        });
    }
    Calibration {
        buckets,
        ece: if ece_den > 0.0 {
            ece_num / ece_den
        } else {
            0.0
        },
    }
}

/// Render a calibration as a fixed-width text histogram.
pub fn render(c: &Calibration) -> String {
    let mut out = String::from("predicted   actual   weight\n");
    for b in &c.buckets {
        if b.weight == 0 {
            continue;
        }
        out.push_str(&format!(
            "[{:.1},{:.1})   {:>6.3}   {:>8}\n",
            b.lo, b.hi, b.actual_taken, b.weight
        ));
    }
    out.push_str(&format!("expected calibration error: {:.3}\n", c.ece));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_corpus::suite;
    use esp_lang::CompilerConfig;

    fn sort_data() -> BenchData {
        let bench = suite()
            .into_iter()
            .find(|b| b.name == "sort")
            .expect("sort");
        BenchData::build(&bench, &CompilerConfig::default())
    }

    #[test]
    fn oracle_probabilities_are_perfectly_calibrated() {
        let data = sort_data();
        let profile = data.profile.clone();
        let mut oracle = |site: BranchId| {
            profile
                .counts(site)
                .and_then(|c| c.taken_prob())
                .unwrap_or(0.5)
        };
        let c = calibration(&data, 10, &mut oracle);
        assert!(c.ece < 0.06, "oracle ECE should be ~0: {}", c.ece);
        let total: u64 = c.buckets.iter().map(|b| b.weight).sum();
        assert_eq!(total, data.profile.dyn_cond_branches);
        assert!(render(&c).contains("expected calibration error"));
    }

    #[test]
    fn constant_half_probability_has_known_error() {
        let data = sort_data();
        let mut flat = |_: BranchId| 0.5;
        let c = calibration(&data, 10, &mut flat);
        // everything lands in one bucket; its ECE is |0.5 - overall taken|
        let taken = data.profile.overall_taken_fraction().expect("branches ran");
        assert!((c.ece - (0.5 - taken).abs()).abs() < 1e-9);
        let nonempty: Vec<&Bucket> = c.buckets.iter().filter(|b| b.weight > 0).collect();
        assert_eq!(nonempty.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let data = sort_data();
        let mut flat = |_: BranchId| 0.5;
        let _ = calibration(&data, 0, &mut flat);
    }
}
