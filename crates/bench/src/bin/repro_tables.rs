//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! repro_tables [table3|table4|table5|table6|table7|fig1|fig2|dyn|extras|scheme|all]
//!              [--quick] [--threads N] [--subset NAME,NAME,…] [--save-model DIR]
//!              [--precision f32|f64] [--flip-bound B] [--features paper24|extended]
//!              [--trace-out FILE] [--metrics-out FILE]
//! ```
//!
//! Every output is a deterministic function of the generated corpus and is
//! recomputed from nothing on each run; nothing is read back from disk.
//! `--quick` shrinks the ESP learner (fewer epochs, fewer hidden units);
//! the paper-shaped ranking is preserved, absolute numbers move a little.
//! `--threads` caps every worker pool a run starts: the ones that compile
//! and profile a suite (Table 6's MIPS recompile included) and the one
//! that trains the leave-one-out folds (`0`, the default, means one per
//! core). Every network trains on one thread, and every thread count
//! produces identical tables.
//!
//! Each artifact accepts only the flags it reads: `--trace-out` and
//! `--metrics-out` everywhere, `all` the flags of every table it renders.
//! Any other flag, `--flip-bound` without `--precision f32`, a `--subset`
//! name outside the corpus and whatever else `esp_obs::cli` rejects exit 2
//! before a suite is built; an unwritable telemetry file exits 1 after.
//!
//! `--save-model DIR` publishes every Table 4 cross-validation fold to a
//! model registry under `DIR` as `.espm` artifacts
//! (`table4-<lang>-fold<i>`, version 1), each recording the corpus, seed
//! and training configuration it came from, for `esp-serve` to serve.
//!
//! `--subset sort,grep,…` restricts the suite to the named programs, in
//! that order — useful for fast smoke runs; Table 6 recompiles the same
//! programs for MIPS. `--trace-out FILE` enables span tracing and writes
//! a Perfetto-loadable trace on exit; `--metrics-out FILE` writes the
//! process-global Prometheus text exposition (`esp_runtime_*`,
//! `esp_train_*`, `esp_eval_*` families). Telemetry is observation-only:
//! the tables are bitwise identical with and without it.
//!
//! `dyn` renders the static-vs-dynamic arena table: every program runs
//! through the interpreter with the arena attached, which scores each
//! conditional-branch outcome as it resolves under bimodal / gshare / TAGE
//! / the ESP-seeded TAGE hybrid next to the event-scored BTFNT and ESP
//! static schemes, pooled per language, with the hybrid-vs-TAGE verdict
//! over each program's first 2048 events. `dyn` is deliberately not part
//! of `all`: it retrains the same leave-one-out folds as Table 4, so run
//! it separately.
//!
//! `--features paper24|extended` (default `paper24`) selects the feature
//! set for Table 4. `extended` runs Table 4 *twice* — once on the paper's
//! 24 features (published to `--save-model` if given, unchanged output) and
//! once with the `esp-analyze` analysis-derived features appended — then
//! prints a greppable `extended_vs_baseline:` miss-rate delta line.
//! Extended folds are never published (`.espm` carries paper-feature models
//! only), so the default artifacts on disk are untouched.
//!
//! `--precision f32` (default `f64`) runs the f32 quantization gate on
//! Table 4: each fold's f64 model is quantized, rescored on its held-out
//! program, prediction flips and the f32 miss-rate delta are reported (and
//! the quantized fold artifacts published beside the f64 folds in the
//! `--save-model` registry, if any, under `…-f32` names — *refused* per
//! fold over the bound), and the process exits nonzero when the pooled
//! flip rate exceeds `--flip-bound B` (default 0.02). Table 4 itself stays
//! f64 — the gate never changes the printed table. The published folds are
//! the way to serve f32: `esp-serve --registry DIR --name
//! table4-c-fold0-f32` serves at the precision the artifact stores.

use esp_core::{EspConfig, Learner};
use esp_eval::{
    compute_with_quant, fig1, table3, table5, table6, table7, QuantGateConfig, SuiteData,
    Table4Config,
};
use esp_lang::CompilerConfig;
use esp_nnet::MlpConfig;
use esp_obs::cli::{self, Args, Spec, Telemetry};

/// Every flag any artifact reads, and the one artifact name.
const SPEC: Spec = Spec {
    name: "repro_tables",
    values: &[
        "--threads",
        "--save-model",
        "--subset",
        "--trace-out",
        "--metrics-out",
        "--precision",
        "--flip-bound",
        "--features",
    ],
    switches: &["--quick"],
    positional: 1,
};

/// The artifacts `all` renders.
const ALL_PARTS: &[&str] = &[
    "table3", "table4", "table5", "table6", "table7", "fig1", "fig2", "extras", "scheme",
];

/// The flags `artifact` reads besides [`Telemetry::FLAGS`] (`all` reads
/// those of its parts), or `None` when no artifact has that name.
fn artifact_flags(artifact: &str) -> Option<&'static [&'static str]> {
    Some(match artifact {
        "table3" | "table5" | "table6" | "fig2" => &["--threads", "--subset"],
        "table4" => &[
            "--threads",
            "--subset",
            "--quick",
            "--save-model",
            "--precision",
            "--flip-bound",
            "--features",
        ],
        "dyn" => &["--threads", "--subset", "--quick"],
        "extras" | "scheme" => &["--threads", "--quick"],
        "table7" | "fig1" | "all" => &[],
        _ => return None,
    })
}

/// Does `artifact` read `flag`?
fn reads(artifact: &str, flag: &str) -> bool {
    Telemetry::FLAGS.contains(&flag)
        || artifact_flags(artifact).is_some_and(|f| f.contains(&flag))
        || (artifact == "all" && ALL_PARTS.iter().any(|part| reads(part, flag)))
}

/// Fail unless `artifact` exists and reads every flag given, so a flag
/// that would change nothing fails loudly instead of being ignored.
fn check_artifact(args: &Args, artifact: &str) -> Result<(), String> {
    if artifact_flags(artifact).is_none() {
        return Err(format!(
            "unknown artifact `{artifact}`; expected table3|table4|table5|table6|table7|fig1|fig2|dyn|extras|scheme|all"
        ));
    }
    if let Some(flag) = args.unread(|f| reads(artifact, f)) {
        return Err(format!("`{artifact}` does not read `{flag}`"));
    }
    if args.value("--flip-bound").is_some() && args.value("--precision") != Some("f32") {
        return Err("`--flip-bound` is read only with `--precision f32`".into());
    }
    Ok(())
}

fn esp_config(quick: bool, threads: usize) -> EspConfig {
    let mlp = if quick {
        MlpConfig {
            hidden: 6,
            max_epochs: 60,
            patience: 12,
            restarts: 1,
            ..MlpConfig::default()
        }
    } else {
        MlpConfig {
            hidden: 10,
            max_epochs: 200,
            patience: 25,
            restarts: 2,
            ..MlpConfig::default()
        }
    };
    EspConfig {
        learner: Learner::Net(mlp),
        threads,
        ..EspConfig::default()
    }
}

fn main() {
    let args = cli::or_exit(cli::parse(&SPEC, std::env::args().skip(1)));
    let what = args.positional().first().map_or("all", String::as_str);
    cli::or_exit(check_artifact(&args, what));
    let subset: Option<Vec<&str>> = args.value("--subset").map(|s| s.split(',').collect());
    if let Some(Err(name)) = subset.as_deref().map(esp_corpus::select) {
        cli::usage_error(format!(
            "`--subset` names `{name}`, which is not a corpus program"
        ));
    }
    let quick = args.switch("--quick");
    let threads: usize = cli::or_exit(args.number("--threads")).unwrap_or(0);
    let save_dir = args.value("--save-model").map(std::path::PathBuf::from);
    let quant = match args.value("--precision") {
        None | Some("f64") => None,
        Some("f32") => Some(QuantGateConfig {
            flip_bound: cli::or_exit(args.number("--flip-bound")).unwrap_or(0.02),
        }),
        Some(other) => cli::usage_error(format!("--precision takes `f32` or `f64`, got `{other}`")),
    };
    let extended_features = match args.value("--features") {
        None | Some("paper24") => false,
        Some("extended") => true,
        Some(other) => cli::usage_error(format!(
            "--features takes `paper24` or `extended`, got `{other}`"
        )),
    };
    let telemetry = Telemetry::start(&args);
    let needs_suite = matches!(
        what,
        "table3" | "table4" | "table5" | "table6" | "fig2" | "dyn" | "all"
    );
    let suite = needs_suite.then(|| match &subset {
        Some(names) => {
            eprintln!("building + profiling a {}-program subset…", names.len());
            SuiteData::build_subset(names, &CompilerConfig::default(), threads)
        }
        None => {
            eprintln!("building + profiling the 43-program corpus (cc-osf1-v1.2, Alpha)…");
            SuiteData::build_with_threads(&CompilerConfig::default(), threads)
        }
    });

    // True only when `--precision f32` ran and the pooled flip rate blew the
    // bound; the nonzero exit is deferred past the telemetry writes below.
    let mut gate_failed = false;
    let mut run_t4 = |suite: &SuiteData| {
        eprintln!(
            "running Table 4 (leave-one-out ESP over {} programs{})…",
            suite.benches.len(),
            if quick { ", quick mode" } else { "" }
        );
        let cfg = Table4Config {
            esp: esp_config(quick, threads),
            model_cache: save_dir.clone(),
            quant: quant.clone(),
        };
        let (rows, gate) = compute_with_quant(suite, &cfg);
        println!("{}", esp_eval::table4::render_rows(suite, &rows));
        if let Some(gate) = gate {
            println!("{}", gate.render());
            gate_failed |= !gate.passes();
        }
        if extended_features {
            eprintln!("re-running Table 4 with the extended (analysis-derived) feature set…");
            let mut esp = esp_config(quick, threads);
            esp.features.extended = true;
            // Extended models are dimensionally incompatible with the .espm
            // format; never touch the registry for this leg.
            let ext_cfg = Table4Config {
                esp,
                model_cache: None,
                quant: None,
            };
            let (ext_rows, _) = compute_with_quant(suite, &ext_cfg);
            println!("{}", esp_eval::table4::render_rows(suite, &ext_rows));
            let base = esp_eval::table4::summarize(&rows);
            let ext = esp_eval::table4::summarize(&ext_rows);
            // Report in the table's units (percent missed).
            let esp_base = 100.0 * base.averages.last().expect("overall row").1[4];
            let esp_ext = 100.0 * ext.averages.last().expect("overall row").1[4];
            println!(
                "extended_vs_baseline: esp_miss_baseline={esp_base:.2} \
                 esp_miss_extended={esp_ext:.2} delta={:+.2}",
                esp_ext - esp_base
            );
        }
    };

    match what {
        "table3" => println!("{}", table3(suite.as_ref().expect("built above"))),
        "table4" => run_t4(suite.as_ref().expect("built above")),
        "table5" => println!("{}", table5(suite.as_ref().expect("built above"))),
        "table6" => {
            eprintln!("recompiling the suite for the MIPS flavour…");
            println!("{}", table6(suite.as_ref().expect("built above"), threads));
        }
        "table7" => println!("{}", table7()),
        "dyn" => {
            let s = suite.as_ref().expect("built above");
            eprintln!(
                "running the dynamic-predictor arena over {} programs{}…",
                s.benches.len(),
                if quick { ", quick mode" } else { "" }
            );
            println!("{}", esp_eval::table_dyn(s, &esp_config(quick, threads)));
        }
        "fig1" => println!("{}", fig1(10)),
        "fig2" => {
            let s = suite.as_ref().expect("built above");
            let tomcatv = s.by_name("tomcatv").expect("tomcatv in suite");
            println!("{}", esp_eval::casestudy::fig2(tomcatv));
        }
        "all" => {
            let s = suite.as_ref().expect("built above");
            println!("{}", table3(s));
            run_t4(s);
            println!("{}", table5(s));
            eprintln!("recompiling the suite for the MIPS flavour…");
            println!("{}", table6(s, threads));
            println!("{}", table7());
            println!("{}", fig1(10));
            let tomcatv = s.by_name("tomcatv").expect("tomcatv in suite");
            println!("{}", esp_eval::casestudy::fig2(tomcatv));
            print_extras(s, quick);
            println!("{}", esp_eval::scheme_study::scheme_study(s));
        }
        "scheme" => {
            let s = suite_for_extras(quick, threads);
            println!("{}", esp_eval::scheme_study::scheme_study(&s));
        }
        "extras" => {
            let s = suite_for_extras(quick, threads);
            print_extras(&s, quick);
        }
        _ => unreachable!("check_artifact admits only known artifacts"),
    }

    let written = telemetry.finish(|| esp_obs::global_metrics().render_text());
    if gate_failed {
        eprintln!("f32 quantization gate FAILED: pooled flip rate over --flip-bound");
    }
    if gate_failed || !written {
        std::process::exit(1);
    }
}

fn suite_for_extras(quick: bool, threads: usize) -> SuiteData {
    let cfg = CompilerConfig::default();
    if quick {
        SuiteData::build_subset(
            &[
                "sort", "grep", "sed", "gzip", "wdiff", "compress", "espresso", "eqntott",
            ],
            &cfg,
            threads,
        )
    } else {
        eprintln!("building + profiling the corpus for the extension studies…");
        SuiteData::build_with_threads(&cfg, threads)
    }
}

/// The two extension studies from the paper's §6 future-work list:
/// probability calibration of the ESP network and program-based profile
/// estimation from its probability output.
fn print_extras(suite: &SuiteData, quick: bool) {
    use esp_core::{leave_one_out, TrainingProgram};
    use esp_eval::calibration::{calibration, render};
    use esp_eval::freq::evaluate_estimation;
    use esp_ir::Lang;
    use std::collections::HashMap;

    let cfg = esp_config(quick, 0);
    let c_idx = suite.lang_indices(Lang::C);
    if c_idx.len() < 2 {
        eprintln!("need at least two C programs");
        return;
    }
    let group: Vec<TrainingProgram<'_>> = c_idx
        .iter()
        .map(|&i| {
            let b = &suite.benches[i];
            TrainingProgram::new(&b.prog, &b.analysis, &b.profile)
        })
        .collect();
    // One held-out program carries both studies.
    let target = c_idx[0];
    let model = leave_one_out(&group, 0, &cfg);
    let b = &suite.benches[target];

    // Both studies consult the same per-site probabilities; compute them in
    // one batched kernel pass and serve every closure call from the map.
    let sites = b.prog.branch_sites();
    let site_probs: HashMap<esp_ir::BranchId, f64> = sites
        .iter()
        .copied()
        .zip(model.predict_prob_sites(&b.prog, &b.analysis, &sites))
        .collect();

    println!(
        "Extension A: calibration of ESP probabilities on unseen `{}`\n",
        b.bench.name
    );
    let mut probs = |site| site_probs[&site];
    let cal = calibration(b, 10, &mut probs);
    println!("{}", render(&cal));

    println!(
        "Extension B: block-frequency estimation on `{}` (Wu-Larus flow equations)\n",
        b.bench.name
    );
    println!(
        "{:<22} {:>10} {:>10}",
        "probability source", "log-corr", "MAE"
    );
    let profile = b.profile.clone();
    let mut oracle = |site: esp_ir::BranchId| {
        profile
            .counts(site)
            .and_then(|c| c.taken_prob())
            .unwrap_or(0.5)
    };
    let r = evaluate_estimation(b, &mut oracle);
    println!(
        "{:<22} {:>10.3} {:>10.3}",
        "profile oracle", r.log_correlation, r.mean_abs_error
    );
    let mut esp_probs = |site| site_probs[&site];
    let r = evaluate_estimation(b, &mut esp_probs);
    println!(
        "{:<22} {:>10.3} {:>10.3}",
        "ESP network", r.log_correlation, r.mean_abs_error
    );
    let mut flat = |_| 0.5;
    let r = evaluate_estimation(b, &mut flat);
    println!(
        "{:<22} {:>10.3} {:>10.3}",
        "flat 0.5", r.log_correlation, r.mean_abs_error
    );
}
