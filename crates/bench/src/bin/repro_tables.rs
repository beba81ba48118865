//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! repro_tables [table3|table4|table5|table6|table7|fig1|fig2|dyn|all] [--quick] [--threads N]
//!              [--save-model DIR] [--subset NAME,NAME,…]
//!              [--trace-out FILE] [--metrics-out FILE] [--coalesce on|off]
//!              [--precision f32|f64] [--flip-bound B] [--features paper24|extended]
//!              [--dynamic] [--warmup N]
//! ```
//!
//! Every output is a deterministic function of the generated corpus and is
//! recomputed from nothing on each run; nothing is read back from disk.
//! `--quick` shrinks the ESP learner (fewer epochs, fewer hidden units);
//! the paper-shaped ranking is preserved, absolute numbers move a little.
//! `--threads` caps the workers that profile the full corpus and that
//! train the leave-one-out folds (`0`, the default, means one per core);
//! every network trains on one thread, and every thread count produces
//! identical tables. A `--subset` build and the `extras`/`scheme` suites
//! profile on every core.
//!
//! Each artifact accepts only the flags it reads: `--trace-out` and
//! `--metrics-out` everywhere, `all` the flags of every table it renders.
//! Any other flag, and `--flip-bound` without `--precision f32`, exits 2
//! before a suite is built.
//!
//! `--save-model DIR` publishes every Table 4 cross-validation fold to a
//! model registry under `DIR` as `.espm` artifacts
//! (`table4-<lang>-fold<i>`, version 1), each recording the corpus, seed
//! and training configuration it came from, for `esp-serve` to serve.
//!
//! `--subset sort,grep,…` restricts the profiled corpus to the named
//! programs — useful for fast smoke runs (verify.sh drives Table 4 over a
//! four-program subset). `--trace-out FILE` enables span tracing and writes
//! a Perfetto-loadable trace on exit; `--metrics-out FILE` writes the
//! process-global Prometheus text exposition (`esp_runtime_*`,
//! `esp_train_*`, `esp_eval_*` families). Telemetry is observation-only:
//! the tables are bitwise identical with and without it.
//!
//! `--coalesce on|off` (default `on`) controls training-set example
//! coalescing: examples with bit-identical encoded feature rows are merged
//! (summed weight, weight-averaged target) before training. The merge is
//! exact up to float reassociation — Table 4 matches the uncoalesced run at
//! printed precision (`crates/eval/tests/coalesce_table4.rs` pins this) —
//! and shrinks the per-epoch work by the corpus duplication factor.
//!
//! `--dynamic` (or the `dyn` artifact name) renders the static-vs-dynamic
//! arena table: every program runs through the interpreter with the arena
//! attached, which scores each conditional-branch outcome as it resolves
//! under bimodal / gshare / TAGE / the ESP-seeded TAGE hybrid next to the
//! event-scored BTFNT and ESP static schemes, pooled per language, with the
//! warmup-window hybrid-vs-TAGE verdict. `--warmup N` sets the warmup
//! window (default 2048 events). `dyn` is deliberately not part of `all`:
//! it retrains the same leave-one-out folds as Table 4, so run it
//! separately.
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
//! the quantized fold artifacts published to the `--save-model` registry,
//! if any, under `…-f32` names — *refused* per fold over the bound), and
//! the process exits nonzero when the pooled flip rate exceeds
//! `--flip-bound B` (default 0.02). Table 4 itself stays f64 — the gate
//! never changes the printed table. The published folds are the way to
//! serve f32: `esp-serve --registry DIR --name table4-c-fold0-f32` serves
//! at the precision the artifact stores.

use esp_core::{EspConfig, Learner};
use esp_eval::{
    compute_with_quant, fig1, table3, table5, table6, table7, QuantGateConfig, SuiteData,
    Table4Config, TableDynConfig, DEFAULT_WARMUP_EVENTS,
};
use esp_lang::CompilerConfig;
use esp_nnet::MlpConfig;

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["--quick", "--dynamic"];

/// Flags that consume the next argument as their value.
const VALUE_FLAGS: &[&str] = &[
    "--threads",
    "--save-model",
    "--subset",
    "--trace-out",
    "--metrics-out",
    "--coalesce",
    "--precision",
    "--flip-bound",
    "--warmup",
    "--features",
];

/// Flags every artifact reads.
const COMMON_FLAGS: &[&str] = &["--trace-out", "--metrics-out"];

/// The artifacts `all` renders.
const ALL_PARTS: &[&str] = &[
    "table3", "table4", "table5", "table6", "table7", "fig1", "fig2", "extras", "scheme",
];

/// The flags `artifact` reads besides [`COMMON_FLAGS`] (`all` reads those
/// of its parts), or `None` when no artifact has that name.
fn artifact_flags(artifact: &str) -> Option<&'static [&'static str]> {
    Some(match artifact {
        "table3" | "table5" | "table6" | "fig2" => &["--threads", "--subset"],
        "table4" => &[
            "--threads",
            "--subset",
            "--quick",
            "--coalesce",
            "--save-model",
            "--precision",
            "--flip-bound",
            "--features",
        ],
        "dyn" => &[
            "--threads",
            "--subset",
            "--quick",
            "--coalesce",
            "--warmup",
            "--dynamic",
        ],
        "extras" => &["--quick", "--coalesce"],
        "scheme" => &["--quick"],
        "table7" | "fig1" | "all" => &[],
        _ => return None,
    })
}

/// Does `artifact` read `flag`?
fn reads(artifact: &str, flag: &str) -> bool {
    COMMON_FLAGS.contains(&flag)
        || artifact_flags(artifact).is_some_and(|f| f.contains(&flag))
        || (artifact == "all" && ALL_PARTS.iter().any(|part| reads(part, flag)))
}

/// Parsed command line: every `--flag` checked against the known sets (an
/// unknown flag is a hard error, not a silently ignored typo), repeated
/// `--flag VALUE` extraction behind one helper.
struct Flags {
    args: Vec<String>,
    /// Every flag given, in order.
    given: Vec<&'static str>,
}

impl Flags {
    /// Parse `std::env::args`, rejecting unknown flags with exit 2.
    fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut given = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if a.starts_with("--") {
                if let Some(&flag) = VALUE_FLAGS.iter().find(|&&f| f == a) {
                    if i + 1 >= args.len() {
                        eprintln!("flag `{a}` needs a value");
                        std::process::exit(2);
                    }
                    given.push(flag);
                    i += 1; // skip the value
                } else if let Some(&flag) = BOOL_FLAGS.iter().find(|&&f| f == a) {
                    given.push(flag);
                } else {
                    eprintln!(
                        "unknown flag `{a}`; known flags: {} and {}",
                        VALUE_FLAGS.join(", "),
                        BOOL_FLAGS.join(", ")
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        Flags { args, given }
    }

    /// Exit 2 unless `artifact` exists and reads every flag given, so a
    /// flag that would change nothing fails loudly instead of being
    /// ignored. Runs before any suite is built.
    fn check_artifact(&self, artifact: &str) {
        if artifact_flags(artifact).is_none() {
            eprintln!(
                "unknown artifact `{artifact}`; expected table3|table4|table5|table6|table7|fig1|fig2|dyn|extras|scheme|all"
            );
            std::process::exit(2);
        }
        if let Some(flag) = self.given.iter().find(|f| !reads(artifact, f)) {
            eprintln!("`{artifact}` does not read `{flag}`");
            std::process::exit(2);
        }
        if self.value("--flip-bound").is_some() && self.value("--precision") != Some("f32") {
            eprintln!("`--flip-bound` is read only with `--precision f32`");
            std::process::exit(2);
        }
    }

    /// Is the boolean `flag` present?
    fn bool(&self, flag: &str) -> bool {
        debug_assert!(BOOL_FLAGS.contains(&flag));
        self.args.iter().any(|a| a == flag)
    }

    /// The value following `--flag`, if present.
    fn value(&self, flag: &str) -> Option<&str> {
        debug_assert!(VALUE_FLAGS.contains(&flag));
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// `--flag N` parsed as a number, or `default`.
    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.value(flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("flag `{flag}` takes a number, got `{v}`");
                std::process::exit(2);
            }),
        }
    }

    /// The first positional (non-flag, non-flag-value) argument.
    fn positional(&self) -> Option<&str> {
        self.args
            .iter()
            .enumerate()
            .find(|&(i, a)| {
                let follows_value_flag = i > 0 && VALUE_FLAGS.contains(&self.args[i - 1].as_str());
                !a.starts_with("--") && !follows_value_flag
            })
            .map(|(_, a)| a.as_str())
    }
}

fn esp_config(quick: bool, threads: usize, coalesce: bool) -> EspConfig {
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
        coalesce,
        ..EspConfig::default()
    }
}

fn main() {
    let flags = Flags::parse();
    let what = flags.positional().unwrap_or(if flags.bool("--dynamic") {
        "dyn"
    } else {
        "all"
    });
    flags.check_artifact(what);
    let quick = flags.bool("--quick");
    let threads: usize = flags.number("--threads", 0);
    let trace_out = flags.value("--trace-out").map(std::path::PathBuf::from);
    let metrics_out = flags.value("--metrics-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        esp_obs::trace::enable();
    }
    let subset: Option<Vec<String>> = flags
        .value("--subset")
        .map(|s| s.split(',').map(str::to_string).collect());
    let coalesce = match flags.value("--coalesce") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            eprintln!("--coalesce takes `on` or `off`, got `{other}`");
            std::process::exit(2);
        }
    };
    let save_dir = flags.value("--save-model").map(std::path::PathBuf::from);
    let quant = match flags.value("--precision") {
        None | Some("f64") => None,
        Some("f32") => Some(QuantGateConfig {
            flip_bound: flags.number("--flip-bound", 0.02),
            // Publish quantized fold artifacts next to the f64 folds.
            publish: save_dir.clone(),
        }),
        Some(other) => {
            eprintln!("--precision takes `f32` or `f64`, got `{other}`");
            std::process::exit(2);
        }
    };
    let extended_features = match flags.value("--features") {
        None | Some("paper24") => false,
        Some("extended") => true,
        Some(other) => {
            eprintln!("--features takes `paper24` or `extended`, got `{other}`");
            std::process::exit(2);
        }
    };
    let needs_suite = matches!(
        what,
        "table3" | "table4" | "table5" | "table6" | "fig2" | "dyn" | "all"
    );
    let suite = needs_suite.then(|| match &subset {
        Some(names) => {
            eprintln!("building + profiling a {}-program subset…", names.len());
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            SuiteData::build_subset(&refs, &CompilerConfig::default())
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
            esp: esp_config(quick, threads, coalesce),
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
            let mut esp = esp_config(quick, threads, coalesce);
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
            eprintln!("recompiling the corpus for the MIPS flavour…");
            println!("{}", table6(suite.as_ref().expect("built above")));
        }
        "table7" => println!("{}", table7()),
        "dyn" => {
            let s = suite.as_ref().expect("built above");
            eprintln!(
                "running the dynamic-predictor arena over {} programs{}…",
                s.benches.len(),
                if quick { ", quick mode" } else { "" }
            );
            let cfg = TableDynConfig {
                esp: esp_config(quick, threads, coalesce),
                warmup_events: flags.number("--warmup", DEFAULT_WARMUP_EVENTS),
            };
            println!("{}", esp_eval::table_dyn(s, &cfg));
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
            eprintln!("recompiling the corpus for the MIPS flavour…");
            println!("{}", table6(s));
            println!("{}", table7());
            println!("{}", fig1(10));
            let tomcatv = s.by_name("tomcatv").expect("tomcatv in suite");
            println!("{}", esp_eval::casestudy::fig2(tomcatv));
            print_extras(s, quick, coalesce);
            println!("{}", esp_eval::scheme_study::scheme_study(s));
        }
        "scheme" => {
            let s = suite_for_extras(quick);
            println!("{}", esp_eval::scheme_study::scheme_study(&s));
        }
        "extras" => {
            let s = suite_for_extras(quick);
            print_extras(&s, quick, coalesce);
        }
        _ => unreachable!("Flags::check_artifact admits only known artifacts"),
    }

    if let Some(path) = &metrics_out {
        match std::fs::write(path, esp_obs::global_metrics().render_text()) {
            Ok(()) => eprintln!("wrote metrics exposition to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &trace_out {
        match esp_obs::trace::write_json(path) {
            Ok(n) => eprintln!("wrote {n} trace events to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if gate_failed {
        eprintln!("f32 quantization gate FAILED: pooled flip rate over --flip-bound");
        std::process::exit(1);
    }
}

fn suite_for_extras(quick: bool) -> SuiteData {
    if quick {
        SuiteData::build_subset(
            &[
                "sort", "grep", "sed", "gzip", "wdiff", "compress", "espresso", "eqntott",
            ],
            &CompilerConfig::default(),
        )
    } else {
        eprintln!("building + profiling the corpus for the extension studies…");
        SuiteData::build(&CompilerConfig::default())
    }
}

/// The two extension studies from the paper's §6 future-work list:
/// probability calibration of the ESP network and program-based profile
/// estimation from its probability output.
fn print_extras(suite: &SuiteData, quick: bool, coalesce: bool) {
    use esp_core::{leave_one_out, TrainingProgram};
    use esp_eval::calibration::{calibration, render};
    use esp_eval::freq::evaluate_estimation;
    use esp_ir::Lang;
    use std::collections::HashMap;

    let cfg = esp_config(quick, 0, coalesce);
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
