//! The §3.1.2 Scheme study: per-heuristic miss rates on the three Scheme
//! programs (`boyer`, `corewar`, `sccomp`, compiled through Scheme-to-C)
//! against the same heuristics' rates on the C corpus.
//!
//! The paper: "the return heuristic had an average 56% miss rate and the
//! pointer heuristic had a miss rate of 89%" on Scheme — evidence that
//! expert heuristics are language-bound while a corpus-trained predictor can
//! simply be retrained.
//!
//! This study scores *heuristics* only — no trained model predicts here, so
//! the batched `EspModel` prediction entry points don't apply to it.

use esp_corpus::scheme_suite;
use esp_exec::ExecLimits;
use esp_heur::{measure_rates, Heuristic, HeuristicRates};
use esp_ir::{Lang, Program, ProgramAnalysis};
use esp_lang::CompilerConfig;

use crate::data::SuiteData;
use crate::fmt::{pct, TextTable};

/// Compiled-and-profiled Scheme trio.
pub struct SchemeData {
    /// `(name, program, analysis, profile)` per Scheme benchmark.
    pub runs: Vec<(String, Program, ProgramAnalysis, esp_exec::Profile)>,
}

impl SchemeData {
    /// Build the three Scheme programs under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics when generation/compilation/execution fails (generator bugs).
    pub fn build(cfg: &CompilerConfig) -> Self {
        let runs = scheme_suite()
            .into_iter()
            .map(|b| {
                let prog = b.compile(cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
                let analysis = ProgramAnalysis::analyze(&prog);
                let profile = esp_exec::run(
                    &prog,
                    &ExecLimits {
                        max_insns: 120_000_000,
                        ..ExecLimits::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{}: {e}", b.name))
                .profile;
                (b.name.to_string(), prog, analysis, profile)
            })
            .collect();
        SchemeData { runs }
    }

    /// Per-heuristic rates over the trio.
    pub fn rates(&self) -> HeuristicRates {
        measure_rates(self.runs.iter().map(|(_, p, a, f)| (p, a, f)))
    }
}

/// Render the study: heuristic miss rates on Scheme vs on the C subset of
/// the main corpus, with the paper's two published Scheme numbers alongside.
pub fn scheme_study(c_suite: &SuiteData) -> String {
    let scheme = SchemeData::build(&c_suite.config);
    let scheme_rates = scheme.rates();
    let c_rates = measure_rates(
        c_suite
            .benches
            .iter()
            .filter(|b| b.bench.lang == Lang::C)
            .map(|b| (&b.prog, &b.analysis, &b.profile)),
    );

    let mut t = TextTable::new(vec![
        "Heuristic",
        "Miss on C corpus",
        "Miss on Scheme",
        "Paper (Scheme)",
    ]);
    for h in Heuristic::TABLE1_ORDER {
        let paper = match h {
            Heuristic::Return => "56",
            Heuristic::Pointer => "89",
            _ => "-",
        };
        t.row(vec![
            h.name().to_string(),
            pct(c_rates.miss_rate(h)),
            pct(scheme_rates.miss_rate(h)),
            paper.to_string(),
        ]);
    }
    let mut out = String::from(
        "Scheme study (paper §3.1.2): heuristics bred on C idioms degrade on Scheme\n\
         (boyer / corewar / sccomp, compiled through Scheme-to-C)\n\n",
    );
    out.push_str(&t.render());
    out.push_str(
        "\n(the paper reports only the Return and Pointer rates for Scheme; the\n\
         qualitative claim under reproduction is that both degrade sharply vs C)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_pointer_heuristic_degrades() {
        let scheme = SchemeData::build(&CompilerConfig::default());
        let rates = scheme.rates();
        // on the C corpus the pointer heuristic misses ~3%; on Scheme it
        // misses ~28% with the current corpus stream — an order of magnitude
        // worse, which is the §3.1.2 claim under reproduction
        let pointer_miss = rates.miss_rate(Heuristic::Pointer);
        assert!(
            pointer_miss > 0.20,
            "pointer heuristic should degrade on Scheme, missed only {:.0}%",
            pointer_miss * 100.0
        );
        let return_miss = rates.miss_rate(Heuristic::Return);
        assert!(
            return_miss > 0.20,
            "return heuristic should degrade on Scheme, missed only {:.0}%",
            return_miss * 100.0
        );
        // the heuristic must actually apply — Scheme is pointer-dense
        assert!(
            rates.coverage[Heuristic::Pointer.ordinal()] > 1_000,
            "pointer heuristic barely applied: {:?}",
            rates.coverage
        );
    }
}
