//! The corpus linter: run the `esp-analyze` diagnostics over every corpus
//! program and (optionally) cross-check statically-decided branches against
//! execution ground truth.
//!
//! ```text
//! esp_lint [--subset a,b,c] [--json FILE] [--oracle]
//! ```
//!
//! * `--subset` — comma-separated benchmark names, linted in that order
//!   (default: all 43); a name that is not a corpus program exits 2
//!   before anything is compiled;
//! * `--json FILE` — write the machine-readable report (the format pinned
//!   by `results/lint_golden.json`) to `FILE`; a file that cannot be
//!   written exits 1 after the findings are printed;
//! * `--oracle` — execute each program and verify that every `L002`
//!   finding's proved direction matches the observed `taken_prob` exactly
//!   (0.0 or 1.0). Any violation exits 1: the static analyses claim facts
//!   about *real* executions, so a single counterexample is a bug.
//!
//! A flag `esp_obs::cli` rejects exits 2 before anything is compiled.

use std::collections::BTreeMap;
use std::process::ExitCode;

use esp_analyze::{lint_program, report_json, Finding, LintCode, ProgramReport};
use esp_ir::{BranchId, ProgramAnalysis};
use esp_lang::CompilerConfig;
use esp_obs::cli::{self, Spec};

const SPEC: Spec = Spec {
    name: "esp_lint",
    values: &["--subset", "--json"],
    switches: &["--oracle"],
    positional: 0,
};

/// Check every decided-branch finding against the execution profile.
/// Returns human-readable violation descriptions.
fn oracle_violations(
    prog: &esp_ir::Program,
    profile: &esp_exec::Profile,
    findings: &[Finding],
) -> Vec<String> {
    let mut violations = Vec::new();
    for f in findings {
        if f.code != LintCode::DecidedBranch {
            continue;
        }
        let verdict = f.verdict.expect("L002 findings carry a verdict");
        let site = BranchId {
            func: f.func,
            block: f.block,
        };
        let Some(p) = profile.counts(site).and_then(|c| c.taken_prob()) else {
            continue; // never executed: cannot contradict the proof
        };
        let expect = if verdict { 1.0 } else { 0.0 };
        if p != expect {
            violations.push(format!(
                "{}: {} at {} proved always {} but observed taken_prob {p}",
                prog.name,
                f.code.code(),
                site,
                if verdict { "taken" } else { "not-taken" },
            ));
        }
    }
    violations
}

fn main() -> ExitCode {
    let args = cli::or_exit(cli::parse(&SPEC, std::env::args().skip(1)));
    let oracle = args.switch("--oracle");
    let cfg = CompilerConfig::default();

    let benches = match args.value("--subset") {
        None => esp_corpus::suite(),
        Some(list) => match esp_corpus::select(&list.split(',').collect::<Vec<_>>()) {
            Ok(benches) => benches,
            Err(name) => cli::usage_error(format!(
                "`--subset` names `{name}`, which is not a corpus program"
            )),
        },
    };

    let mut reports = Vec::new();
    let mut by_code: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut violations = Vec::new();

    for b in &benches {
        let prog = match b.compile(&cfg) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: compile error: {e}", b.name);
                return ExitCode::from(2);
            }
        };
        let analysis = ProgramAnalysis::analyze(&prog);
        let findings = lint_program(&prog, &analysis);
        for f in &findings {
            *by_code.entry(f.code.code()).or_default() += 1;
        }
        if oracle {
            match esp_corpus::profile(&prog) {
                Ok(profile) => violations.extend(oracle_violations(&prog, &profile, &findings)),
                Err(e) => {
                    eprintln!("{}: execution error: {e:?}", b.name);
                    return ExitCode::from(2);
                }
            }
        }
        println!("{:<12} {:>4} findings", b.name, findings.len());
        reports.push(ProgramReport {
            name: b.name.to_string(),
            findings,
        });
    }

    let total: usize = reports.iter().map(|r| r.findings.len()).sum();
    println!("---");
    for (code, n) in &by_code {
        println!("{code}: {n}");
    }
    println!("total: {total} findings across {} programs", reports.len());

    if let Some(path) = args.value("--json") {
        let json = report_json(&reports);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }

    if oracle {
        if violations.is_empty() {
            println!("oracle: PASS — every decided branch matches its execution profile");
        } else {
            eprintln!("oracle: FAIL — {} violation(s)", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
