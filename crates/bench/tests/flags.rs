//! Command-line contract of the `repro_tables`, `ablations` and `esp_lint`
//! binaries: a flag the chosen artifact never reads, an unknown flag, a
//! malformed value and a `--subset` name outside the corpus all exit 2 and
//! name the offender before any corpus is built, while valid invocations
//! run, on one thread when `--threads 1` says so.

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
