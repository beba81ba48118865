//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload table4|serve-hot|serve-feedback --seed N --seconds S --trace 0|1
//!           --serve-bin PATH [--rustc VERSION] [--git-rev REV]
//! ```
//!
//! `perfbench/run.sh` builds the program and this benchmark and supplies the
//! last three flags. The `table4` workload runs each regeneration in a fresh
//! pipeline process, this binary started as `perfbench --pipeline table4
//! --threads N`. With `--trace 0` the run reports every end-to-end metric,
//! measured on its workload, with `--trace 1` every per-layer one. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; a run whose output checks fail, or
//! that misses a metric, prints `"correct": false` with no numbers and
//! exits 1.

mod openloop;
mod poll;
mod procfs;
mod report;
mod serve;
mod stats;
mod table4;

use report::{quote, Outcome, Run};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload table4|serve-hot|serve-feedback --seed N --seconds S \
         --trace 0|1 --serve-bin PATH [--rustc VERSION] [--git-rev REV]"
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let args: Vec<String> = std::env::args().skip(1).collect();
    const FLAGS: &[&str] = &[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--serve-bin",
        "--rustc",
        "--git-rev",
    ];
    if !args.len().is_multiple_of(2) || args.chunks(2).any(|p| !FLAGS.contains(&p[0].as_str())) {
        usage("every argument is a known --flag followed by its value");
    }
    let get = |flag: &str| args.chunks(2).rfind(|p| p[0] == flag).map(|p| p[1].clone());
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !["table4", "serve-hot", "serve-feedback"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    fn parse<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
        v.unwrap_or_else(|| usage(&format!("{flag} is required")))
            .parse()
            .unwrap_or_else(|_| usage(&format!("{flag} takes a number")))
    }
    let seed: u64 = parse(get("--seed"), "--seed");
    let seconds: f64 = parse(get("--seconds"), "--seconds");
    let trace: u8 = parse(get("--trace"), "--trace");
    if !(seconds.is_finite() && seconds > 0.0) || trace > 1 {
        usage("--seconds is positive, --trace 0 or 1");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Run {
        workload,
        seed,
        seconds,
        trace: trace == 1,
        nproc,
        threads: nproc,
        serve_bin: get("--serve-bin").unwrap_or_default(),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
        git_rev: get("--git-rev").unwrap_or_else(|| "unknown".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, what, threads_flag, threads] = &args[..] {
        if flag == "--pipeline" && what == "table4" && threads_flag == "--threads" {
            let threads = threads
                .parse()
                .unwrap_or_else(|_| usage("--threads takes a number"));
            table4::pipeline_process(threads);
            return;
        }
    }
    let run = parse_args();
    // A traced run reports every layer: those its workload drives from its
    // own load, the others from a probe of the workload that drives them.
    let outcome: Outcome = match (run.workload.as_str(), run.trace) {
        ("table4", false) => table4::run(&run),
        ("table4", true) => {
            let mut out = table4::run_traced(&run);
            out.absorb(serve::run(&Run {
                workload: "serve-feedback".into(),
                ..run.clone()
            }));
            out
        }
        (_, false) => serve::run(&run),
        (_, true) => {
            let mut out = serve::run(&run);
            out.absorb(table4::probe(&run));
            out
        }
    };
    for name in outcome.missing() {
        eprintln!("perfbench: {name} was not measured");
    }
    let flags = if run.workload == "table4" {
        String::new()
    } else {
        serve::server_flags(&run).join(" ")
    };
    println!(
        "provenance: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"pool_threads\": {}, \"shards\": {}, \"connections\": {}, \
         \"server_flags\": {}, \"git_rev\": {}, \"rustc\": {}}}",
        quote(&run.workload),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.nproc,
        run.threads,
        serve::shards(&run),
        serve::connections(&run),
        quote(&flags),
        quote(&run.git_rev),
        quote(&run.rustc)
    );
    print!("{}", outcome.table());
    println!("{}", outcome.json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
