//! Dynamic misprediction accounting.
//!
//! Following the paper's methodology (Table 5's caption): a covered branch
//! is charged its executions in the direction it was not predicted; a
//! branch no predictor covers is "predicted using a uniform random
//! distribution", i.e. charged half its executions in expectation. The rule
//! itself is [`esp_exec::BranchCounts::misses`].

use esp_ir::BranchId;

use crate::data::BenchData;

/// The dynamic miss rate (fraction of executed conditional branches
/// mispredicted) of a per-site predictor over one profiled program, each
/// site scored by [`esp_exec::BranchCounts::misses`] (`None` = uncovered).
/// Returns 0 for programs that executed no conditional branches.
pub fn miss_rate(data: &BenchData, mut predict: impl FnMut(BranchId) -> Option<bool>) -> f64 {
    let mut misses = 0.0f64;
    let mut total = 0u64;
    for site in data.prog.branch_sites() {
        let Some(counts) = data.profile.counts(site) else {
            continue;
        };
        misses += counts.misses(predict(site));
        total += counts.executed;
    }
    if total == 0 {
        0.0
    } else {
        misses / total as f64
    }
}

/// Weighted mean of per-program miss rates (the paper averages per-program
/// percentages, not pooled executions).
pub fn mean(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 0.0;
    }
    rates.iter().sum::<f64>() / rates.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_rates() {
        assert_eq!(mean(&[0.2, 0.4]), 0.30000000000000004);
        assert_eq!(mean(&[]), 0.0);
    }
}
