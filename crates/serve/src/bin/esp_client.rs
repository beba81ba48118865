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
//! Load generation lives in the repository benchmark
//! (`bash perfbench/run.sh --workload serve-hot|serve-feedback`).

use std::path::Path;

use esp_artifact::{ModelArtifact, Registry};
use esp_serve::Client;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{what} takes a number, got {value:?}");
        std::process::exit(2);
    })
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn connect(args: &[String]) -> Client {
    let addr = flag_value(args, "--addr")
        .unwrap_or_else(|| fail("this subcommand needs --addr HOST:PORT".into()));
    Client::connect(addr).unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("info") => {
            let selector = flag_value(&args, "--model").unwrap_or("");
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
        Some("stats") => {
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
        Some("shutdown") => {
            connect(&args)
                .shutdown()
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("server acknowledged shutdown");
        }
        Some("get") => get(&args),
        Some("merge-traces") => merge_traces(&args),
        Some("registry") => registry(&args),
        _ => {
            eprintln!(
                "usage: esp-client (info [--model NAME[@V]]|stats|shutdown) --addr HOST:PORT\n\
                 \x20      esp-client get --addr HOST:PORT [--path /metrics]\n\
                 \x20      esp-client merge-traces --out FILE LABEL=PATH [LABEL=PATH ...]\n\
                 \x20      esp-client registry (list | inspect --name M [--model-version V]\n\
                 \x20                           | publish --name M (--from PATH | --synthetic DIM,HIDDEN,SEED)\n\
                 \x20                           | gc --name M --keep K) --dir DIR"
            );
            std::process::exit(2);
        }
    }
}

/// Plain HTTP/1.1 `GET` over a raw `TcpStream` — lets scripts smoke-test
/// the telemetry sidecar without curl. Prints the body to stdout; a
/// non-200 status is an error.
fn get(args: &[String]) {
    use std::io::{Read, Write};
    let addr = flag_value(args, "--addr")
        .unwrap_or_else(|| fail("get needs --addr HOST:PORT (the server's --http-addr)".into()));
    let path = flag_value(args, "--path").unwrap_or("/metrics");
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
fn merge_traces(args: &[String]) {
    let out =
        flag_value(args, "--out").unwrap_or_else(|| fail("merge-traces needs --out FILE".into()));
    let mut inputs: Vec<(String, std::path::PathBuf)> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => i += 2,
            arg => {
                let (label, path) = arg
                    .split_once('=')
                    .unwrap_or_else(|| fail(format!("inputs are LABEL=PATH, got {arg:?}")));
                if label.is_empty() || path.is_empty() {
                    fail(format!("inputs are LABEL=PATH, got {arg:?}"));
                }
                inputs.push((label.to_string(), std::path::PathBuf::from(path)));
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        fail("merge-traces needs at least one LABEL=PATH input".into());
    }
    let borrowed: Vec<(&str, &Path)> = inputs
        .iter()
        .map(|(l, p)| (l.as_str(), p.as_path()))
        .collect();
    match esp_obs::trace::merge_json(&borrowed, Path::new(out)) {
        Ok(n) => println!(
            "merged {n} events from {} trace(s) into {out}",
            inputs.len()
        ),
        Err(e) => fail(format!("cannot merge traces: {e}")),
    }
}

fn registry(args: &[String]) {
    let dir = flag_value(args, "--dir")
        .unwrap_or_else(|| fail("registry subcommands need --dir DIR".into()));
    let reg = Registry::open(dir);
    match args.get(1).map(String::as_str) {
        Some("list") => {
            let entries = reg.list().unwrap_or_else(|e| fail(e.to_string()));
            if entries.is_empty() {
                println!("(empty registry)");
            }
            for e in entries {
                let versions: Vec<String> = e.versions.iter().map(u32::to_string).collect();
                println!("{}: v{}", e.name, versions.join(", v"));
            }
        }
        Some("inspect") => {
            let name =
                flag_value(args, "--name").unwrap_or_else(|| fail("inspect needs --name M".into()));
            let version = flag_value(args, "--model-version").map(|v| parse(v, "--model-version"));
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
        Some("publish") => {
            let name =
                flag_value(args, "--name").unwrap_or_else(|| fail("publish needs --name M".into()));
            let artifact = match (flag_value(args, "--from"), flag_value(args, "--synthetic")) {
                (Some(path), None) => ModelArtifact::load(Path::new(path))
                    .unwrap_or_else(|e| fail(format!("cannot load {path}: {e}"))),
                (None, Some(spec)) => {
                    let parts: Vec<&str> = spec.split(',').collect();
                    if parts.len() != 3 {
                        fail(format!("--synthetic takes DIM,HIDDEN,SEED, got {spec:?}"));
                    }
                    ModelArtifact::synthetic(
                        parse(parts[0], "--synthetic DIM"),
                        parse(parts[1], "--synthetic HIDDEN"),
                        parse(parts[2], "--synthetic SEED"),
                    )
                }
                _ => fail(
                    "publish needs exactly one of --from PATH | --synthetic DIM,HIDDEN,SEED".into(),
                ),
            };
            let v = reg
                .publish(name, &artifact)
                .unwrap_or_else(|e| fail(e.to_string()));
            println!("published {name} v{v} to {dir}");
        }
        Some("gc") => {
            let name =
                flag_value(args, "--name").unwrap_or_else(|| fail("gc needs --name M".into()));
            let keep: usize = flag_value(args, "--keep")
                .map(|v| parse(v, "--keep"))
                .unwrap_or_else(|| fail("gc needs --keep K".into()));
            let removed = reg.gc(name, keep).unwrap_or_else(|e| fail(e.to_string()));
            for p in &removed {
                println!("removed {}", p.display());
            }
            println!("{} version(s) removed", removed.len());
        }
        _ => fail("registry subcommand must be list | inspect | publish | gc".into()),
    }
}
