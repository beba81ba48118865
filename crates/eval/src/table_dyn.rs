//! The static-vs-dynamic headline table (`table_dyn`): how far the paper's
//! static schemes sit from cheap dynamic hardware prediction, and whether
//! the corpus-learned ESP prior still pays once hardware is in play.
//!
//! Every corpus program runs through the interpreter once more with
//! `esp-sim`'s predictor arena attached as its branch sink, so each dynamic
//! conditional-branch outcome is scored as it resolves: the BTFNT and ESP
//! static schemes event by event, plus bimodal, gshare, cold TAGE and the
//! ESP-seeded TAGE hybrid whose base table starts from the trained
//! network's per-site taken-probabilities. ESP probabilities come from the
//! same leave-one-out language-group folds as Table 4, so the static ESP
//! column here is the event-level counterpart of Table 4's.
//!
//! Besides whole-run rates the report pools the first
//! [`TableDynConfig::warmup_events`] events of every program per language:
//! the warmup regime is where a cold TAGE pays allocation misses that a
//! seeded base table avoids, so the hybrid-vs-TAGE verdict is stated there.

use esp_core::EspConfig;
use esp_corpus::Group;
use esp_exec::ExecLimits;
use esp_heur::{BranchCtx, Btfnt};
use esp_ir::Lang;
use esp_sim::{Arena, StaticScheme};

use crate::data::SuiteData;
use crate::fmt::{pct1, TextTable};
use crate::table4::{for_each_fold, Table4Config};

/// Options for the dynamic-arena study.
#[derive(Debug, Clone)]
pub struct TableDynConfig {
    /// ESP learner and feature options (fold training, as in Table 4).
    pub esp: EspConfig,
    /// Size of the per-program warmup window for the pooled
    /// hybrid-vs-TAGE comparison (`esp_sim::DEFAULT_WARMUP_EVENTS` unless
    /// a study asks otherwise).
    pub warmup_events: u64,
}

/// One program's row: whole-run miss rates per scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDynRow {
    /// Program name.
    pub name: String,
    /// Benchmark group.
    pub group: Group,
    /// Source language (drives the pools).
    pub lang: Lang,
    /// Dynamic conditional-branch events scored.
    pub events: u64,
    /// BTFNT static scheme.
    pub btfnt: f64,
    /// ESP static scheme (leave-one-out fold, `> 0.5` threshold).
    pub esp: f64,
    /// Bimodal 2-bit counters.
    pub bimodal: f64,
    /// Gshare.
    pub gshare: f64,
    /// Cold TAGE.
    pub tage: f64,
    /// ESP-seeded TAGE hybrid.
    pub hybrid: f64,
    /// Cold-TAGE misses inside the warmup window.
    pub warmup_tage_misses: f64,
    /// Hybrid misses inside the warmup window.
    pub warmup_hybrid_misses: f64,
    /// Events actually counted as warmup (≤ `events`).
    pub warmup_events: u64,
}

/// Pooled (execution-weighted) miss rates for a set of programs.
#[derive(Debug, Clone, PartialEq)]
pub struct PooledRates {
    /// Pool label (`"C pool"`, `"Fortran pool"`, `"Overall pool"`).
    pub label: String,
    /// Events pooled.
    pub events: u64,
    /// `[btfnt, esp, bimodal, gshare, tage, hybrid]` pooled miss rates.
    pub rates: [f64; 6],
    /// Pooled warmup miss rate of cold TAGE.
    pub warmup_tage: f64,
    /// Pooled warmup miss rate of the ESP-seeded hybrid.
    pub warmup_hybrid: f64,
}

impl PooledRates {
    /// Does the ESP-seeded hybrid beat cold TAGE in this pool's warmup
    /// window?
    fn hybrid_wins_warmup(&self) -> bool {
        self.warmup_hybrid < self.warmup_tage
    }
}

/// The full study result: per-program rows plus language and overall pools.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDynReport {
    /// Per-program rows, in Table 3 order.
    pub rows: Vec<TableDynRow>,
    /// C pool, Fortran pool, overall pool (pools over executed events, not
    /// per-program averages — dynamic predictors are execution machines).
    pub pooled: Vec<PooledRates>,
    /// Warmup window size requested.
    pub warmup_events: u64,
}

/// Compute every row. Expensive: trains one ESP fold per program, then
/// runs every program through the interpreter with the arena attached.
pub fn compute(suite: &SuiteData, cfg: &TableDynConfig) -> TableDynReport {
    let _sp = esp_obs::span!("eval", "table_dyn", programs = suite.benches.len());

    // Per-bench ESP taken-probabilities from the Table 4 leave-one-out
    // folds. Benches in a language group too small to cross-validate keep
    // neutral 0.5 priors (ESP column scored uncovered, hybrid seeded cold).
    let t4cfg = Table4Config {
        esp: cfg.esp.clone(),
        model_cache: None,
        quant: None,
    };
    let mut probs: Vec<Option<Vec<f64>>> = vec![None; suite.benches.len()];
    for_each_fold(suite, &t4cfg, |f| probs[f.bench] = Some(f.probs.to_vec()));

    let limits = ExecLimits {
        max_insns: 80_000_000,
        ..ExecLimits::default()
    };
    let rows: Vec<TableDynRow> = suite
        .benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut sp = esp_obs::span!("eval", "table_dyn_bench", bench = b.bench.name);
            let sites = b.prog.branch_sites();
            let btfnt: Vec<Option<bool>> = sites
                .iter()
                .map(|&s| Some(Btfnt.predict(&BranchCtx::new(&b.prog, &b.analysis, s))))
                .collect();
            let esp: Vec<Option<bool>> = match &probs[i] {
                Some(p) => p.iter().map(|&x| Some(x > 0.5)).collect(),
                None => vec![None; sites.len()],
            };
            let neutral;
            let priors: &[f64] = match &probs[i] {
                Some(p) => p,
                None => {
                    neutral = vec![0.5; sites.len()];
                    &neutral
                }
            };
            let statics = vec![
                StaticScheme {
                    name: "BTFNT".into(),
                    preds: &btfnt,
                },
                StaticScheme {
                    name: "ESP".into(),
                    preds: &esp,
                },
            ];
            let mut arena = Arena::new(&sites, statics, Some(priors), cfg.warmup_events);
            esp_exec::run_with_sink(&b.prog, &limits, &mut arena)
                .unwrap_or_else(|e| panic!("benchmark `{}` failed to run: {e}", b.bench.name));
            let r = arena.finish();
            let rate = |name: &str| r.miss_rate(name).unwrap_or(0.0);
            if sp.is_enabled() {
                sp.arg("events", r.events as f64);
            }
            TableDynRow {
                name: b.bench.name.to_string(),
                group: b.bench.group,
                lang: b.bench.lang,
                events: r.events,
                btfnt: rate("BTFNT"),
                esp: rate("ESP"),
                bimodal: rate("bimodal"),
                gshare: rate("gshare"),
                tage: rate("tage"),
                hybrid: rate("esp+tage"),
                warmup_tage_misses: r.scheme("tage").map_or(0.0, |s| s.warmup_misses),
                warmup_hybrid_misses: r.scheme("esp+tage").map_or(0.0, |s| s.warmup_misses),
                warmup_events: r.warmup_events,
            }
        })
        .collect();

    let pool = |label: &str, sel: &dyn Fn(&TableDynRow) -> bool| -> PooledRates {
        let picked: Vec<&TableDynRow> = rows.iter().filter(|r| sel(r)).collect();
        let events: u64 = picked.iter().map(|r| r.events).sum();
        let warm: u64 = picked.iter().map(|r| r.warmup_events).sum();
        let col = |f: &dyn Fn(&TableDynRow) -> f64| -> f64 {
            if events == 0 {
                return 0.0;
            }
            picked.iter().map(|r| f(r) * r.events as f64).sum::<f64>() / events as f64
        };
        let warm_rate = |f: &dyn Fn(&TableDynRow) -> f64| -> f64 {
            if warm == 0 {
                return 0.0;
            }
            picked.iter().map(|r| f(r)).sum::<f64>() / warm as f64
        };
        PooledRates {
            label: label.to_string(),
            events,
            rates: [
                col(&|r| r.btfnt),
                col(&|r| r.esp),
                col(&|r| r.bimodal),
                col(&|r| r.gshare),
                col(&|r| r.tage),
                col(&|r| r.hybrid),
            ],
            warmup_tage: warm_rate(&|r| r.warmup_tage_misses),
            warmup_hybrid: warm_rate(&|r| r.warmup_hybrid_misses),
        }
    };
    let pooled = vec![
        pool("C pool", &|r: &TableDynRow| r.lang == Lang::C),
        pool("Fortran pool", &|r: &TableDynRow| r.lang == Lang::Fort),
        pool("Overall pool", &|_| true),
    ];

    TableDynReport {
        rows,
        pooled,
        warmup_events: cfg.warmup_events,
    }
}

/// Render a computed report in the repo's text-table house style.
fn render_report(suite: &SuiteData, report: &TableDynReport) -> String {
    let mut t = TextTable::new(vec![
        "Program", "Events", "BTFNT", "ESP", "Bimodal", "Gshare", "TAGE", "ESP+TAGE",
    ]);
    for r in &report.rows {
        t.row(vec![
            r.name.clone(),
            r.events.to_string(),
            pct1(r.btfnt),
            pct1(r.esp),
            pct1(r.bimodal),
            pct1(r.gshare),
            pct1(r.tage),
            pct1(r.hybrid),
        ]);
    }
    t.separator();
    for p in &report.pooled {
        let mut row = vec![p.label.clone(), p.events.to_string()];
        row.extend(p.rates.iter().map(|&x| pct1(x)));
        t.row(row);
    }

    let mut out = format!(
        "Dyn table: static vs dynamic branch misprediction rates ({})\n\
         (statics event-scored on the same traces; pools weight by executed events)\n\n{}",
        suite.config.name,
        t.render()
    );
    out.push_str(&format!(
        "\nWarmup window (first {} events per program, pooled):\n",
        report.warmup_events
    ));
    for p in &report.pooled {
        if p.events == 0 {
            out.push_str(&format!("  {:<13} (no programs in pool)\n", p.label));
            continue;
        }
        let verdict = if p.hybrid_wins_warmup() {
            "ESP-seeded hybrid wins warmup"
        } else if p.warmup_hybrid == p.warmup_tage {
            "warmup tie"
        } else {
            "cold TAGE wins warmup"
        };
        out.push_str(&format!(
            "  {:<13} TAGE {:>7}   ESP+TAGE {:>7}   -> {verdict}\n",
            p.label,
            pct1(p.warmup_tage),
            pct1(p.warmup_hybrid),
        ));
    }
    out
}

/// Compute and render the dyn table in one call (the `repro_tables
/// --dynamic` entry point).
pub fn table_dyn(suite: &SuiteData, cfg: &TableDynConfig) -> String {
    let report = compute(suite, cfg);
    render_report(suite, &report)
}
