//! Command-line contract of the `repro_tables` and `ablations` binaries:
//! a flag the chosen artifact never reads, an unknown flag and a
//! malformed value all exit 2 and name the offending flag before any
//! corpus is built, while a valid cheap invocation runs.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// `bin args` exits 2 before building a suite, naming `flag` on stderr.
fn rejects(bin: &str, args: &[&str], flag: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} was not rejected: {stderr}"
    );
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr does not name `{flag}`: {stderr}"
    );
    assert!(
        !stderr.contains("building"),
        "{args:?} built a suite before rejecting it"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
}

#[test]
fn repro_tables_rejects_flags_its_artifact_never_reads() {
    let bin = env!("CARGO_BIN_EXE_repro_tables");
    for (args, flag) in [
        (&["table3", "--save-model", "d"][..], "--save-model"),
        (&["dyn", "--save-model", "d"][..], "--save-model"),
        (&["dyn", "--precision", "f32"][..], "--precision"),
        (&["table4", "--warmup", "9"][..], "--warmup"),
        (&["fig1", "--threads", "2"][..], "--threads"),
        (&["all", "--warmup", "9"][..], "--warmup"),
        (&["table4", "--dynamic"][..], "--dynamic"),
        (&["table4", "--flip-bound", "0.05"][..], "--flip-bound"),
        (
            &["table4", "--precision", "f64", "--flip-bound", "0.05"][..],
            "--flip-bound",
        ),
        (&["table4", "--quik"][..], "--quik"),
        (&["table4", "--threads", "x"][..], "--threads"),
        (&["table4", "--threads"][..], "--threads"),
        (&["table9"][..], "table9"),
    ] {
        rejects(bin, args, flag);
    }
}

#[test]
fn ablations_rejects_unknown_flags_and_bad_threads() {
    let bin = env!("CARGO_BIN_EXE_ablations");
    rejects(bin, &["--quik"], "--quik");
    rejects(bin, &["--threads", "x"], "--threads");
    rejects(bin, &["--threads"], "--threads");
}

#[test]
fn repro_tables_runs_a_cheap_artifact_with_the_common_flags() {
    let metrics = std::env::temp_dir().join(format!("esp-flags-{}.prom", std::process::id()));
    let out = run(
        env!("CARGO_BIN_EXE_repro_tables"),
        &[
            "fig1",
            "--metrics-out",
            metrics.to_str().expect("utf-8 path"),
        ],
    );
    assert!(
        out.status.success(),
        "fig1 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Figure 1"));
    assert!(metrics.exists(), "--metrics-out wrote nothing");
    std::fs::remove_file(&metrics).ok();
}
