//! `esp-client` — query and administer an `esp-serve` instance, and manage
//! a model registry.
//!
//! ```text
//! esp-client info      --addr HOST:PORT [--model NAME[@VERSION]]
//! esp-client stats     --addr HOST:PORT
//! esp-client shutdown  --addr HOST:PORT
//! esp-client get       --addr HOST:PORT [--path /metrics]
//! esp-client merge-traces --out FILE LABEL=PATH [LABEL=PATH ...]
//! esp-client registry  (list | inspect --name M [--model-version V]
//!                       | publish --name M (--from PATH | --synthetic DIM,HIDDEN,SEED)
//!                       | gc --name M --keep K) --dir DIR
//! ```
//!
//! `get` speaks plain HTTP/1.1 over a raw `TcpStream` against the server's
//! `--http-addr` telemetry sidecar (no curl required); `merge-traces`
//! unions per-process Perfetto traces onto one timeline, one pid per
//! labelled input, joined by the `req` ids stamped on client and server
//! spans.
//!
//! Each subcommand, and each `registry` action, accepts only the flags
//! shown for it: under the `esp_obs::cli` policy any other flag
//! (`registry list --keep 0`), a repeated one, a missing value, a number
//! that does not parse or a stray argument exits 2, naming it, before
//! anything is connected to or written.
//!
//! Load generation lives in the repository benchmark
//! (`bash perfbench/run.sh --workload serve-hot|serve-feedback`).

use std::path::Path;

use esp_artifact::{ModelArtifact, Registry};
use esp_obs::cli::{self, Args, Spec};
use esp_serve::Client;

/// A subcommand that takes the value flags `values`, no switch, and at
/// most `positional` positional arguments.
const fn command(name: &'static str, values: &'static [&'static str], positional: usize) -> Spec {
    Spec {
        name,
        values,
        switches: &[],
        positional,
    }
}

/// Every subcommand, each `registry` action with only its own flags
/// (`merge-traces` takes any number of inputs).
const COMMANDS: &[Spec] = &[
    command("info", &["--addr", "--model"], 0),
    command("stats", &["--addr"], 0),
    command("shutdown", &["--addr"], 0),
    command("get", &["--addr", "--path"], 0),
    command("merge-traces", &["--out"], usize::MAX),
    command("registry list", &["--dir"], 0),
    command(
        "registry inspect",
        &["--dir", "--name", "--model-version"],
        0,
    ),
    command(
        "registry publish",
        &["--dir", "--name", "--from", "--synthetic"],
        0,
    ),
    command("registry gc", &["--dir", "--name", "--keep"], 0),
];

const USAGE: &str = "\
usage: esp-client (info [--model NAME[@V]]|stats|shutdown) --addr HOST:PORT
       esp-client get --addr HOST:PORT [--path /metrics]
       esp-client merge-traces --out FILE LABEL=PATH [LABEL=PATH ...]
       esp-client registry (list | inspect --name M [--model-version V]
                            | publish --name M (--from PATH | --synthetic DIM,HIDDEN,SEED)
                            | gc --name M --keep K) --dir DIR";

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn connect(args: &Args) -> Client {
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| fail("this subcommand needs --addr HOST:PORT".into()));
    Client::connect(addr).unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")))
}

fn main() {
    let (command, args) = cli::parse_command(COMMANDS, std::env::args().skip(1))
        .unwrap_or_else(|msg| cli::usage_error(format!("{msg}\n{USAGE}")));
    match command.name {
        "info" => {
            let selector = args.value("--model").unwrap_or("");
            let i = connect(&args)
                .info_model(selector)
                .unwrap_or_else(|e| fail(e.to_string()));
            let routed = if i.model_name.is_empty() {
                String::new()
            } else {
                format!(" [{}@{}]", i.model_name, i.model_version)
            };
            println!(
                "model `{}`{routed}: {} inputs, {} hidden units, artifact format v{}",
                i.corpus_id, i.dim, i.hidden, i.format_version
            );
        }
        "stats" => {
            let s = connect(&args)
                .stats()
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("connections:      {}", s.connections);
            println!("requests:         {}", s.requests);
            println!("predict requests: {}", s.predict_requests);
            println!("predictions:      {}", s.predictions);
            println!("cache hits:       {}", s.cache_hits);
            println!("cache misses:     {}", s.cache_misses);
            println!("cache hit rate:   {:.4}", s.cache_hit_rate());
            println!(
                "latency p50/p99/max: {}/{}/{} us",
                s.p50_us, s.p99_us, s.max_us
            );
        }
        "shutdown" => {
            connect(&args)
                .shutdown()
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("server acknowledged shutdown");
        }
        "get" => get(&args),
        "merge-traces" => merge_traces(&args),
        action => registry(action, &args),
    }
}

/// Plain HTTP/1.1 `GET` over a raw `TcpStream` — lets scripts smoke-test
/// the telemetry sidecar without curl. Prints the body to stdout; a
/// non-200 status is an error.
fn get(args: &Args) {
    use std::io::{Read, Write};
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| fail("get needs --addr HOST:PORT (the server's --http-addr)".into()));
    let path = args.value("--path").unwrap_or("/metrics");
    let mut stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .and_then(|()| stream.flush())
        .unwrap_or_else(|e| fail(format!("cannot send request: {e}")));
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .unwrap_or_else(|e| fail(format!("cannot read response: {e}")));
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| fail(format!("malformed response from {addr}")));
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        fail(format!("GET {path}: {status}"));
    }
    print!("{body}");
}

/// Union per-process Perfetto traces onto one timeline via
/// [`esp_obs::trace::merge_json`]: each positional `LABEL=PATH` input
/// becomes its own pid, labelled by a `process_name` metadata event.
fn merge_traces(args: &Args) {
    let out = args
        .value("--out")
        .unwrap_or_else(|| fail("merge-traces needs --out FILE".into()));
    let inputs: Vec<(&str, &Path)> = args
        .positional()
        .iter()
        .map(|arg| match arg.split_once('=') {
            Some((label, path)) if !label.is_empty() && !path.is_empty() => {
                (label, Path::new(path))
            }
            _ => fail(format!("inputs are LABEL=PATH, got {arg:?}")),
        })
        .collect();
    if inputs.is_empty() {
        fail("merge-traces needs at least one LABEL=PATH input".into());
    }
    match esp_obs::trace::merge_json(&inputs, Path::new(out)) {
        Ok(n) => println!(
            "merged {n} events from {} trace(s) into {out}",
            inputs.len()
        ),
        Err(e) => fail(format!("cannot merge traces: {e}")),
    }
}

/// Run one `registry` action (`registry list` and so on).
fn registry(action: &str, args: &Args) {
    let dir = args
        .value("--dir")
        .unwrap_or_else(|| fail("registry actions need --dir DIR".into()));
    let name = || {
        args.value("--name")
            .unwrap_or_else(|| fail(format!("{action} needs --name M")))
    };
    let reg = Registry::open(dir);
    match action {
        "registry list" => {
            // `Registry::list` reads a missing root as an empty registry;
            // a directory named on the command line must exist.
            if !Path::new(dir).is_dir() {
                fail(format!("no registry directory at {dir}"));
            }
            let entries = reg.list().unwrap_or_else(|e| fail(e.to_string()));
            if entries.is_empty() {
                println!("(empty registry)");
            }
            for e in entries {
                let versions: Vec<String> = e.versions.iter().map(u32::to_string).collect();
                println!("{}: v{}", e.name, versions.join(", v"));
            }
        }
        "registry inspect" => {
            let name = name();
            let version = cli::or_exit(args.number("--model-version"));
            let i = reg
                .inspect(name, version)
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("{} v{} — {}", i.name, i.version, i.path.display());
            println!("  corpus:   {}", i.meta.corpus_id);
            println!("  seed:     {}", i.meta.seed);
            match i.meta.fold {
                Some(f) => println!("  fold:     {f}"),
                None => println!("  fold:     (none)"),
            }
            println!("  examples: {}", i.meta.examples);
            println!("  config:   {}", i.meta.train_config);
            println!("  topology: {} inputs, {} hidden", i.dim, i.hidden);
            println!("  weights:  f{}", i.precision_bits);
            println!(
                "  rates:    {}",
                if i.has_rates { "present" } else { "absent" }
            );
            println!("  size:     {} bytes", i.file_len);
        }
        "registry publish" => {
            let name = name();
            let artifact = match (args.value("--from"), args.value("--synthetic")) {
                (Some(path), None) => ModelArtifact::load(Path::new(path))
                    .unwrap_or_else(|e| fail(format!("cannot load {path}: {e}"))),
                (None, Some(spec)) => cli::or_exit(ModelArtifact::parse_synthetic(spec)),
                _ => fail(
                    "publish needs exactly one of --from PATH | --synthetic DIM,HIDDEN,SEED".into(),
                ),
            };
            let v = reg
                .publish(name, &artifact)
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("published {name} v{v} to {dir}");
        }
        "registry gc" => {
            let name = name();
            let keep: usize = cli::or_exit(args.number("--keep"))
                .unwrap_or_else(|| fail("gc needs --keep K".into()));
            let removed = reg.gc(name, keep).unwrap_or_else(|e| fail(e.to_string()));
            for p in &removed {
                println!("removed {}", p.display());
            }
            println!("{} version(s) removed", removed.len());
        }
        _ => unreachable!("parse_command admits only the commands in COMMANDS"),
    }
}
