//! Integration: the Scheme-to-C pipeline end to end through the facade —
//! parse, compile, execute, analyse, and feed ESP.

use esp_repro::corpus::scheme_suite;
use esp_repro::esp::{EspConfig, EspModel, Learner, TrainingProgram};
use esp_repro::exec::{run, ExecLimits};
use esp_repro::ir::{ProcKind, ProgramAnalysis};
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::MlpConfig;

#[test]
fn scheme_trio_profiles_and_is_recursive() {
    for bench in scheme_suite() {
        let prog = bench
            .compile(&CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let out =
            run(&prog, &ExecLimits::default()).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(out.profile.dyn_cond_branches > 1_000, "{}", bench.name);
        let recursive = prog
            .iter_funcs()
            .filter(|(id, _)| prog.proc_kind(*id) == ProcKind::CallSelf)
            .count();
        assert!(recursive >= 2, "{}: not recursion-driven", bench.name);
        // Scheme-to-C output is C at the binary level (Table 2, feature 7).
        assert!(prog.funcs.iter().all(|f| f.lang == esp_repro::ir::Lang::C));
    }
}

#[test]
fn esp_can_train_on_scheme_and_predict_scheme() {
    // Train on two of the three Scheme programs, predict the third: the
    // retargetability story of the paper's §6 ("we plan to gather large
    // bodies of programs in other programming languages").
    let built: Vec<_> = scheme_suite()
        .into_iter()
        .map(|b| {
            let prog = b.compile(&CompilerConfig::default()).expect("compiles");
            let analysis = ProgramAnalysis::analyze(&prog);
            let profile = run(&prog, &ExecLimits::default()).expect("runs").profile;
            (b.name, prog, analysis, profile)
        })
        .collect();
    let corpus: Vec<TrainingProgram<'_>> = built[..2]
        .iter()
        .map(|(_, p, a, f)| TrainingProgram::new(p, a, f))
        .collect();
    let model = EspModel::train(
        &corpus,
        &EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 6,
                max_epochs: 100,
                patience: 20,
                restarts: 1,
                ..MlpConfig::default()
            }),
            ..EspConfig::default()
        },
    );
    let (name, prog, analysis, profile) = &built[2];
    let mut misses = 0.0;
    let mut total = 0u64;
    for site in prog.branch_sites() {
        let Some(c) = profile.counts(site) else {
            continue;
        };
        total += c.executed;
        misses += if model.predict_taken(prog, analysis, site) {
            (c.executed - c.taken) as f64
        } else {
            c.taken as f64
        };
    }
    let rate = misses / total as f64;
    assert!(
        rate < 0.45,
        "{name}: Scheme-trained ESP no better than chance ({rate:.3})"
    );
}
