//! `esp-serve` — serve trained `.espm` models over TCP.
//!
//! ```text
//! esp-serve --model PATH                 [--addr HOST:PORT] [--shards N] [--cache N]
//! esp-serve --registry DIR --name M[@V][,M2[@V2]…] [--reload-watch MS] [--addr …] …
//! esp-serve --synthetic DIM,HIDDEN,SEED  [--addr …] …
//! ```
//!
//! Exactly one model source is required. Both artifact kinds load: f64
//! models and quantized f32 models. `--precision f32|f64` overrides the
//! artifact's native precision — an f64 artifact is quantized at load when
//! `f32` is asked for; asking an f32 artifact for `f64` is an error.
//! `--addr` defaults to `127.0.0.1:7871`; port `0` picks an ephemeral port
//! (the bound address is printed either way). `--shards 0` (default) runs
//! one shard worker per core, each owning its slice of the LRU cache;
//! `--cache` is the total LRU capacity in entries, split across shards
//! (`0` disables). The process runs until a client sends `SHUTDOWN` (see
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
//! `PROFILE` opcode (it is on by default).

use esp_artifact::{AnyArtifact, ModelArtifact, Registry};
use esp_serve::{serve, ModelSource, Precision, ServeConfig};

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
    std::process::exit(2);
}

fn load_artifact(args: &[String]) -> AnyArtifact {
    match (flag_value(args, "--model"), flag_value(args, "--synthetic")) {
        (Some(path), None) => AnyArtifact::load(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(format!("cannot load {path}: {e}"))),
        (None, Some(spec)) => {
            let parts: Vec<&str> = spec.split(',').collect();
            if parts.len() != 3 {
                fail(format!("--synthetic takes DIM,HIDDEN,SEED, got {spec:?}"));
            }
            AnyArtifact::F64(ModelArtifact::synthetic(
                parse(parts[0], "--synthetic DIM"),
                parse(parts[1], "--synthetic HIDDEN"),
                parse(parts[2], "--synthetic SEED"),
            ))
        }
        _ => fail(
            "pick exactly one of --model PATH | --registry DIR --name M[@V][,…] | \
             --synthetic DIM,HIDDEN,SEED"
                .into(),
        ),
    }
}

/// Parse `--name M[@V][,M2[@V2]…]`: each entry is a registry name with an
/// optional pinned version; `--model-version V` pins every entry that has
/// no `@V` of its own (backward-compatible with the single-name form).
fn parse_models(args: &[String]) -> Vec<(String, Option<u32>)> {
    let names = flag_value(args, "--name")
        .unwrap_or_else(|| fail("--registry needs --name M[@V][,M2[@V2]…]".into()));
    let global_pin: Option<u32> =
        flag_value(args, "--model-version").map(|v| parse(v, "--model-version"));
    names
        .split(',')
        .map(|spec| {
            let spec = spec.trim();
            if spec.is_empty() {
                fail(format!("--name has an empty entry in {names:?}"));
            }
            match spec.split_once('@') {
                Some((n, v)) => (n.to_string(), Some(parse(v, "--name NAME@VERSION"))),
                None => (spec.to_string(), global_pin),
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: esp-serve (--model PATH | --registry DIR --name M[@V][,M2[@V2]…] [--model-version V] | --synthetic DIM,HIDDEN,SEED)\n\
             \x20                [--addr HOST:PORT] [--shards N] [--cache N]\n\
             \x20                [--reload-watch MS] [--precision f32|f64]\n\
             \x20                [--http-addr HOST:PORT] [--no-ledger]\n\
             \x20                [--trace-out FILE] [--metrics-out FILE]"
        );
        return;
    }
    let trace_out = flag_value(&args, "--trace-out").map(std::path::PathBuf::from);
    let metrics_out = flag_value(&args, "--metrics-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        esp_obs::trace::enable();
    }
    let addr = flag_value(&args, "--addr").unwrap_or("127.0.0.1:7871");
    let precision = flag_value(&args, "--precision").map(|v| {
        v.parse::<Precision>().unwrap_or_else(|e| {
            eprintln!("--precision: {e}");
            std::process::exit(2);
        })
    });
    let cfg = ServeConfig {
        shards: flag_value(&args, "--shards").map_or(0, |v| parse(v, "--shards")),
        cache_capacity: flag_value(&args, "--cache").map_or(4096, |v| parse(v, "--cache")),
        precision,
        http_addr: flag_value(&args, "--http-addr").map(String::from),
        ledger: !args.iter().any(|a| a == "--no-ledger"),
    };
    let reload_watch_ms: Option<u64> =
        flag_value(&args, "--reload-watch").map(|v| parse(v, "--reload-watch"));
    let start = |source: ModelSource| {
        serve(source, addr, &cfg).unwrap_or_else(|e| {
            eprintln!("cannot serve on {addr}: {e}");
            std::process::exit(1);
        })
    };

    let mut handle = if let Some(dir) = flag_value(&args, "--registry") {
        if flag_value(&args, "--model").is_some() || flag_value(&args, "--synthetic").is_some() {
            fail("--registry cannot be combined with --model or --synthetic".into());
        }
        let models = parse_models(&args);
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
                    let v = registry.versions(name).ok().and_then(|vs| vs.last().copied());
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
        if reload_watch_ms.is_some() {
            eprintln!("note: --reload-watch only applies with --registry; ignoring");
        }
        let artifact = load_artifact(&args);
        let h = start(ModelSource::Artifact(&artifact));
        let served_bits = match (artifact.precision_bits(), precision) {
            (_, Some(Precision::F32)) | (32, None) => 32,
            _ => 64,
        };
        eprintln!(
            "esp-serve listening on {} — model `{}` ({} inputs, {} hidden, format v{}, f{} weights); \
             stop with `esp-client shutdown --addr {}`",
            h.addr(),
            artifact.meta().corpus_id,
            artifact.dim(),
            artifact.hidden(),
            esp_artifact::FORMAT_VERSION,
            served_bits,
            h.addr(),
        );
        h
    };
    if let Some(http) = handle.http_addr() {
        eprintln!("esp-serve telemetry on http://{http} — /metrics /healthz /sitez");
    }
    handle.wait();
    if let Some(path) = &metrics_out {
        match std::fs::write(path, handle.metrics_text()) {
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
    eprintln!("esp-serve: shut down cleanly");
}
