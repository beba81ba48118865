//! Command-line contract of the `repro_tables`, `ablations` and `esp_lint`
//! binaries: a flag the chosen artifact never reads, an unknown or repeated
//! flag, a value flag whose value is missing or is another flag, a
//! malformed number, a second artifact name and a `--subset` name outside
//! the corpus all exit 2 and name the offender before any corpus is built
//! or any file written, while valid invocations run, on one thread when
//! `--threads 1` says so, and an unwritable telemetry file or lint report
//! fails the run (exit 1) after its output.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// `bin args` exits 2 before building a suite, naming `flag` on stderr.
/// It runs in a fresh empty directory, which must stay empty.
fn rejects(bin: &str, args: &[&str], flag: &str) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "esp-flags-cwd-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir(&dir).expect("create an empty working directory");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("list the working directory")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
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
        (&["table7", "--quick"][..], "--quick"),
        (&["fig1", "--threads", "2"][..], "--threads"),
        (&["extras", "--subset", "sort"][..], "--subset"),
        (&["scheme", "--save-model", "d"][..], "--save-model"),
        (&["table4", "--flip-bound", "0.05"][..], "--flip-bound"),
        (
            &["table4", "--precision", "f64", "--flip-bound", "0.05"][..],
            "--flip-bound",
        ),
        (&["table4", "--quik"][..], "--quik"),
        (&["table4", "--threads", "x"][..], "--threads"),
        (&["table4", "--threads"][..], "--threads"),
        (&["table9"][..], "table9"),
        // A value flag never takes a flag as its value: this named a
        // registry directory `--quick` and ran in quick mode.
        (
            &["table4", "--subset", "sort,grep", "--save-model", "--quick"][..],
            "--save-model",
        ),
        (&["fig1", "table3"][..], "table3"),
        (
            &["table3", "--subset", "sort", "--subset", "grep"][..],
            "--subset",
        ),
    ] {
        rejects(bin, args, flag);
    }
}

#[test]
fn deleted_repro_tables_flags_are_unknown() {
    let bin = env!("CARGO_BIN_EXE_repro_tables");
    for (args, flag) in [
        (&["dyn", "--dynamic"][..], "--dynamic"),
        (&["--dynamic"][..], "--dynamic"),
        (&["dyn", "--warmup", "9"][..], "--warmup"),
        (&["table4", "--coalesce", "off"][..], "--coalesce"),
    ] {
        rejects(bin, args, flag);
        let stderr = String::from_utf8_lossy(&run(bin, args).stderr).into_owned();
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_subset_names_exit_2_before_anything_is_built() {
    rejects(
        env!("CARGO_BIN_EXE_repro_tables"),
        &["table3", "--subset", "sort,nosuch"],
        "nosuch",
    );
    rejects(
        env!("CARGO_BIN_EXE_esp_lint"),
        &["--subset", "sort,nosuch"],
        "nosuch",
    );
}

/// Occurrences of spans named `name` in category `cat` in a trace written
/// by `--trace-out`.
fn spans(trace: &str, cat: &str, name: &str) -> usize {
    trace
        .matches(&format!("\"name\":\"{name}\",\"cat\":\"{cat}\""))
        .count()
}

#[test]
fn threads_one_starts_no_pool_worker_and_table6_recompiles_only_the_subset() {
    for (artifact, profiled) in [("table3", 2), ("table6", 4)] {
        let trace =
            std::env::temp_dir().join(format!("esp-flags-{artifact}-{}.json", std::process::id()));
        let out = run(
            env!("CARGO_BIN_EXE_repro_tables"),
            &[
                artifact,
                "--subset",
                "sort,grep",
                "--threads",
                "1",
                "--trace-out",
                trace.to_str().expect("utf-8 path"),
            ],
        );
        assert!(
            out.status.success(),
            "{artifact} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&trace).expect("trace written");
        std::fs::remove_file(&trace).ok();
        assert_eq!(
            spans(&text, "runtime", "worker"),
            0,
            "{artifact}: pool worker"
        );
        assert_eq!(
            spans(&text, "corpus", "profile_bench"),
            profiled,
            "{artifact}: programs compiled and profiled"
        );
    }
}

#[test]
fn esp_lint_rejects_unknown_and_repeated_flags() {
    let bin = env!("CARGO_BIN_EXE_esp_lint");
    rejects(bin, &["--oracel"], "--oracel");
    rejects(bin, &["--subset", "sort", "--subset", "grep"], "--subset");
}

#[test]
fn esp_lint_fails_an_unwritable_report_after_its_findings() {
    let missing = std::env::temp_dir()
        .join(format!("esp-lint-missing-{}", std::process::id()))
        .join("lint.json");
    let out = run(
        env!("CARGO_BIN_EXE_esp_lint"),
        &[
            "--subset",
            "sort",
            "--json",
            missing.to_str().expect("utf-8 path"),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(stdout.starts_with("sort "), "{stdout}");
    assert!(stdout.contains("findings across 1 programs"), "{stdout}");
}

#[test]
fn ablations_rejects_unknown_flags_and_bad_threads() {
    let bin = env!("CARGO_BIN_EXE_ablations");
    rejects(bin, &["--quik"], "--quik");
    rejects(bin, &["--threads", "x"], "--threads");
    rejects(bin, &["--threads"], "--threads");
    rejects(bin, &["--threads", "1", "--threads", "2"], "--threads");
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

    // An exposition that cannot be written fails the run after its output.
    let missing = std::env::temp_dir()
        .join(format!("esp-flags-missing-{}", std::process::id()))
        .join("m.prom");
    let out = run(
        env!("CARGO_BIN_EXE_repro_tables"),
        &[
            "fig1",
            "--metrics-out",
            missing.to_str().expect("utf-8 path"),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Figure 1"));
}
