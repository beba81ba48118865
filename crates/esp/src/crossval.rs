//! Leave-one-out cross-validation (the paper's §4 evaluation protocol):
//! "we took all of the programs, except the one program for which we want to
//! gather prediction results, and fed the corpus of programs into the neural
//! net".

use crate::model::{EspConfig, EspModel, TrainingProgram};

/// Train a model on every program except `held_out`.
///
/// The learner's RNG seed is offset by the fold index so folds are
/// independent but the whole study stays deterministic. The fold reuses
/// the sites its programs extracted for earlier folds, so the folds over
/// one `programs` slice extract each program once.
///
/// # Panics
///
/// Panics if `held_out` is out of range or fewer than two programs are
/// given.
pub fn leave_one_out(
    programs: &[TrainingProgram<'_>],
    held_out: usize,
    cfg: &EspConfig,
) -> EspModel {
    assert!(
        programs.len() >= 2,
        "leave-one-out needs at least two programs"
    );
    assert!(held_out < programs.len(), "held-out index out of range");
    let _sp = esp_obs::span!(
        "esp",
        "fold",
        held_out = held_out,
        programs = programs.len()
    );
    let fold: Vec<&TrainingProgram<'_>> = programs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != held_out)
        .map(|(_, tp)| tp)
        .collect();
    let mut fold_cfg = cfg.clone();
    if let crate::model::Learner::Net(mcfg) = &mut fold_cfg.learner {
        mcfg.seed = mcfg.seed.wrapping_add(held_out as u64);
    }
    EspModel::train_on(&fold, &fold_cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::FeatureSet;
    use crate::model::Learner;
    use esp_exec::{run, ExecLimits, Profile};
    use esp_ir::{Lang, Program, ProgramAnalysis};
    use esp_lang::{compile_source, CompilerConfig};
    use esp_nnet::MlpConfig;

    struct Owned {
        prog: Program,
        analysis: ProgramAnalysis,
        profile: Profile,
    }

    fn build(name: &str, trip: i64) -> Owned {
        let src = format!(
            "int main() {{ int i = 0; int s = 0; while (i < {trip}) {{ if (i % 7 == 0) {{ s = s + 2; }} s = s + i; i = i + 1; }} return s; }}"
        );
        let prog = compile_source(name, &src, Lang::C, &CompilerConfig::default()).unwrap();
        let analysis = ProgramAnalysis::analyze(&prog);
        let profile = run(&prog, &ExecLimits::default()).unwrap().profile;
        Owned {
            prog,
            analysis,
            profile,
        }
    }

    fn cheap_cfg() -> EspConfig {
        EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 3,
                max_epochs: 60,
                patience: 10,
                restarts: 1,
                ..MlpConfig::default()
            }),
            features: FeatureSet::default(),
            ..EspConfig::default()
        }
    }

    #[test]
    fn produces_one_model_per_fold() {
        let owned: Vec<Owned> = (0..3).map(|i| build("p", 50 + i * 30)).collect();
        let programs: Vec<TrainingProgram<'_>> = owned
            .iter()
            .map(|o| TrainingProgram::new(&o.prog, &o.analysis, &o.profile))
            .collect();
        let models: Vec<EspModel> = (0..programs.len())
            .map(|i| leave_one_out(&programs, i, &cheap_cfg()))
            .collect();
        assert_eq!(models.len(), 3);
        for (i, (m, o)) in models.iter().zip(&owned).enumerate() {
            // each fold trains on the other two programs' examples
            let own: usize = o.prog.branch_sites().len();
            assert!(m.num_examples() >= own, "fold {i} looks too small");
            // and can predict the held-out program
            for site in o.prog.branch_sites() {
                let p = m.predict_prob(&o.prog, &o.analysis, site);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_program() {
        let o = build("p", 40);
        let programs = [TrainingProgram::new(&o.prog, &o.analysis, &o.profile)];
        let _ = leave_one_out(&programs, 0, &cheap_cfg());
    }
}
