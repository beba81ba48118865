//! `esp-serve` — serve trained `.espm` models over TCP.
//!
//! ```text
//! esp-serve --model PATH                 [--addr HOST:PORT] [--cache N]
//! esp-serve --registry DIR --name M[@V][,M2[@V2]…] [--reload-watch MS] [--addr …] …
//! esp-serve --synthetic DIM,HIDDEN,SEED  [--addr …] …
//! ```
//!
//! Exactly one model source is required. Every model serves at the
//! precision its artifact stores: f64 as trained, or f32 for the quantized
//! artifacts `repro_tables --precision f32` publishes after its flip gate.
//! A flag the chosen model source never reads (`--name` or
//! `--reload-watch` without `--registry`) exits 2 before anything is
//! served, as does whatever else `esp_obs::cli` rejects. `--addr` defaults to
//! `127.0.0.1:7871`; port `0` picks an ephemeral port (the bound address
//! is printed either way). `--cache` is the capacity in entries of the
//! one LRU cache, which the event loop owns and answers hits from (`0`
//! disables); the event loop also computes every row that misses it.
//! `--shards 1` is still accepted, and changes nothing, for command lines
//! written when misses went to worker threads; any other `--shards` value
//! exits 2. The process runs until a client sends `SHUTDOWN` (see
//! `esp-client`).
//!
//! The registry form serves every listed name at once (clients pick with
//! the protocol's model selector; the first name is the default). A bare
//! name serves its newest version and `NAME@V` pins one.
//! `--reload-watch MS` polls the registry at that interval and atomically
//! hot-swaps any unpinned name whose newest version advanced — in-flight
//! requests finish on the model they resolved; zero requests drop.
//!
//! Observability: `--trace-out FILE` enables span tracing and writes a
//! Perfetto-loadable trace on shutdown; `--metrics-out FILE` writes the
//! server's Prometheus text exposition on shutdown (it is also served live
//! by the `STATS` opcode). `--http-addr HOST:PORT` additionally starts the
//! HTTP telemetry sidecar serving `GET /metrics`, `/healthz` and
//! `/sitez?top=K` (port 0 picks an ephemeral port; the bound address is
//! printed). `--no-ledger` disables the per-site accuracy ledger fed by the
//! `PROFILE` opcode (it is on by default). A trace or exposition file that
//! cannot be written makes the process exit 1 after it shuts down.

use esp_artifact::{ModelArtifact, Registry};
use esp_obs::cli::{self, Args, Spec, Telemetry};
use esp_serve::{serve, ModelSource, ServeConfig};

const SPEC: Spec = Spec {
    name: "esp-serve",
    values: &[
        "--model",
        "--registry",
        "--name",
        "--synthetic",
        "--addr",
        "--shards",
        "--cache",
        "--reload-watch",
        "--http-addr",
        "--trace-out",
        "--metrics-out",
    ],
    switches: &["--no-ledger", "--help", "-h"],
    positional: 0,
};

fn load_artifact(args: &Args) -> Result<ModelArtifact, String> {
    match (args.value("--model"), args.value("--synthetic")) {
        (Some(path), None) => ModelArtifact::load(std::path::Path::new(path))
            .map_err(|e| format!("cannot load {path}: {e}")),
        (None, Some(spec)) => ModelArtifact::parse_synthetic(spec),
        _ => Err(
            "pick exactly one of --model PATH | --registry DIR --name M[@V][,…] | \
             --synthetic DIM,HIDDEN,SEED"
                .into(),
        ),
    }
}

/// Parse `--name M[@V][,M2[@V2]…]`: each entry is a registry name with an
/// optional pinned version.
fn parse_models(args: &Args) -> Result<Vec<(String, Option<u32>)>, String> {
    let names = args
        .value("--name")
        .ok_or("--registry needs --name M[@V][,M2[@V2]…]")?;
    names
        .split(',')
        .map(|spec| match spec.trim() {
            "" => Err(format!("--name has an empty entry in {names:?}")),
            spec => match spec.split_once('@') {
                Some((n, v)) => v
                    .parse()
                    .map(|v| (n.to_string(), Some(v)))
                    .map_err(|_| format!("--name NAME@VERSION takes a number, got {v:?}")),
                None => Ok((spec.to_string(), None)),
            },
        })
        .collect()
}

fn main() {
    let args = cli::or_exit(cli::parse(&SPEC, std::env::args().skip(1)));
    if args.switch("--help") || args.switch("-h") {
        eprintln!(
            "usage: esp-serve (--model PATH | --registry DIR --name M[@V][,M2[@V2]…] | --synthetic DIM,HIDDEN,SEED)\n\
             \x20                [--addr HOST:PORT] [--cache N]\n\
             \x20                [--reload-watch MS] [--http-addr HOST:PORT] [--no-ledger]\n\
             \x20                [--trace-out FILE] [--metrics-out FILE]"
        );
        return;
    }
    let registry = args.value("--registry");
    if let Some(flag) = args.unread(|flag| match flag {
        "--name" | "--reload-watch" => registry.is_some(),
        "--model" | "--synthetic" => registry.is_none(),
        _ => true,
    }) {
        cli::usage_error(match registry {
            Some(_) => format!("`{flag}` cannot be combined with `--registry`"),
            None => format!("`{flag}` is read only with `--registry`"),
        });
    }
    if let Some(shards) = cli::or_exit(args.number::<usize>("--shards")).filter(|&n| n != 1) {
        cli::usage_error(format!(
            "`--shards {shards}`: the event loop computes every cache miss itself, \
             so `--shards` accepts only 1"
        ));
    }
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7871");
    let cfg = ServeConfig {
        cache_capacity: cli::or_exit(args.number("--cache")).unwrap_or(4096),
        http_addr: args.value("--http-addr").map(String::from),
        ledger: !args.switch("--no-ledger"),
    };
    let reload_watch_ms: Option<u64> = cli::or_exit(args.number("--reload-watch"));
    let telemetry = Telemetry::start(&args);
    let start = |source: ModelSource| {
        serve(source, addr, &cfg).unwrap_or_else(|e| {
            eprintln!("cannot serve on {addr}: {e}");
            std::process::exit(1);
        })
    };

    let mut handle = if let Some(dir) = registry {
        let models = cli::or_exit(parse_models(&args));
        let registry = Registry::open(dir);
        let h = start(ModelSource::Registry {
            registry: &registry,
            models: &models,
            reload_watch_ms,
        });
        let served: Vec<String> = models
            .iter()
            .map(|(name, pin)| match pin {
                Some(v) => format!("{name}@{v} (pinned)"),
                None => {
                    let v = registry
                        .versions(name)
                        .ok()
                        .and_then(|vs| vs.last().copied());
                    match v {
                        Some(v) => format!("{name}@{v}"),
                        None => name.clone(),
                    }
                }
            })
            .collect();
        eprintln!(
            "esp-serve listening on {} — registry {dir}, serving {} (default `{}`); \
             stop with `esp-client shutdown --addr {}`",
            h.addr(),
            served.join(", "),
            models[0].0,
            h.addr(),
        );
        if let Some(ms) = reload_watch_ms {
            eprintln!(
                "hot reload: polling {dir} every {ms} ms for newer versions of unpinned names"
            );
        }
        h
    } else {
        let artifact = cli::or_exit(load_artifact(&args));
        let h = start(ModelSource::Artifact(&artifact));
        eprintln!(
            "esp-serve listening on {} — model `{}` ({} inputs, {} hidden, format v{}, f{} weights); \
             stop with `esp-client shutdown --addr {}`",
            h.addr(),
            artifact.meta.corpus_id,
            artifact.dim(),
            artifact.net.num_hidden(),
            esp_artifact::FORMAT_VERSION,
            artifact.net.precision_bits(),
            h.addr(),
        );
        h
    };
    if let Some(http) = handle.http_addr() {
        eprintln!("esp-serve telemetry on http://{http} — /metrics /healthz /sitez");
    }
    handle.wait();
    let written = telemetry.finish(|| handle.metrics_text());
    eprintln!("esp-serve: shut down cleanly");
    if !written {
        std::process::exit(1);
    }
}
