//! The predictor arena: a [`BranchSink`] that steps every static and
//! dynamic scheme through one program's outcome stream as the interpreter
//! resolves it, tallying expected mispredictions.
//!
//! Static schemes are per-site direction assignments (`Option<bool>`, with
//! `None` = site uncovered by the scheme); an uncovered site is charged
//! 0.5 misses per event, matching `esp-eval`'s expected-miss convention so
//! the static columns of the dynamic table agree with Table 4 exactly.
//! Dynamic predictors implement [`Predictor`] and are stepped
//! predict-then-update per event in execution order.
//!
//! Besides whole-run misses the arena separately tallies misses inside the
//! **warmup window** (the first `warmup_events` events): the regime where
//! the ESP-seeded hybrid's prior should pay off against a cold TAGE.

use std::collections::HashMap;

use esp_exec::BranchSink;
use esp_ir::BranchId;

use crate::bimodal::Bimodal;
use crate::gshare::Gshare;
use crate::predictor::Predictor;
use crate::tage::{Tage, TageConfig};

/// Default warmup window: events counted in the separate warmup tally.
pub const DEFAULT_WARMUP_EVENTS: u64 = 2048;

/// log2 entries of the standalone bimodal predictor.
const BIMODAL_LOG2: u32 = 12;
/// log2 entries of the gshare table.
const GSHARE_LOG2: u32 = 12;
/// History bits folded into the gshare index.
const GSHARE_HIST: u32 = 12;

/// A static prediction scheme: one fixed direction (or nothing) per site in
/// the arena's site table.
#[derive(Debug, Clone)]
pub struct StaticScheme<'a> {
    /// Display name for the result row (e.g. `"BTFNT"`, `"ESP"`).
    pub name: String,
    /// Per-site predicted direction, indexed like the arena's site table;
    /// `None` means the scheme does not cover the site (charged 0.5 per
    /// event).
    pub preds: &'a [Option<bool>],
}

/// Miss tallies for one scheme over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// Scheme name (static name or `Predictor::name`).
    pub name: String,
    /// Expected misses over the whole run (fractional only for static
    /// schemes with uncovered sites).
    pub misses: f64,
    /// Expected misses inside the warmup window.
    pub warmup_misses: f64,
}

/// Result of one arena run: every scheme's tallies over the same events.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaResult {
    /// Total events observed.
    pub events: u64,
    /// Size of the warmup window actually applied (≤ `events`).
    pub warmup_events: u64,
    /// Per-scheme tallies: statics first (caller order), then `bimodal`,
    /// `gshare`, `tage`, and `esp+tage` when priors were supplied.
    pub schemes: Vec<SchemeResult>,
}

impl ArenaResult {
    /// Tallies for the named scheme.
    pub fn scheme(&self, name: &str) -> Option<&SchemeResult> {
        self.schemes.iter().find(|s| s.name == name)
    }

    /// Whole-run miss rate (misses / events) for the named scheme.
    pub fn miss_rate(&self, name: &str) -> Option<f64> {
        if self.events == 0 {
            return None;
        }
        Some(self.scheme(name)?.misses / self.events as f64)
    }
}

/// Every static scheme, the three cold dynamic predictors (bimodal, gshare,
/// TAGE) and — when priors are given — the ESP-seeded TAGE hybrid, stepped
/// together one [`BranchSink::branch`] event at a time. Attach it to
/// `esp_exec::run_with_sink`, then read the tallies with [`Arena::finish`].
///
/// Deterministic: the same event stream gives a bitwise-same result.
pub struct Arena<'a> {
    /// Site-table index of each branch, in the order the arena was built
    /// with (`Program::branch_sites`); dynamic predictors see that index as
    /// the branch's address.
    index: HashMap<BranchId, u32>,
    statics: Vec<StaticScheme<'a>>,
    dynamics: Vec<Box<dyn Predictor>>,
    warmup_events: u64,
    /// `(whole run, warmup)` misses per static scheme.
    static_miss: Vec<(f64, f64)>,
    /// `(whole run, warmup)` misses per dynamic predictor.
    dyn_miss: Vec<(u64, u64)>,
    events: u64,
}

impl<'a> Arena<'a> {
    /// An arena over `sites` (pass `Program::branch_sites()`), scoring each
    /// static scheme in `statics`, the cold dynamic predictors and, with
    /// `esp_priors` (the trained network's per-site taken-probabilities),
    /// the ESP-seeded hybrid. The first `warmup_events` events are tallied
    /// separately as well.
    ///
    /// # Panics
    ///
    /// When a static scheme or the priors do not cover exactly `sites` —
    /// the caller builds all three from the same program, so that is a bug.
    pub fn new(
        sites: &[BranchId],
        statics: Vec<StaticScheme<'a>>,
        esp_priors: Option<&[f64]>,
        warmup_events: u64,
    ) -> Self {
        for s in &statics {
            assert_eq!(
                s.preds.len(),
                sites.len(),
                "static scheme '{}' does not cover the site table",
                s.name
            );
        }
        let mut dynamics: Vec<Box<dyn Predictor>> = vec![
            Box::new(Bimodal::new(BIMODAL_LOG2)),
            Box::new(Gshare::new(GSHARE_LOG2, GSHARE_HIST)),
            Box::new(Tage::new(TageConfig::default())),
        ];
        if let Some(priors) = esp_priors {
            assert_eq!(
                priors.len(),
                sites.len(),
                "ESP priors do not cover the site table"
            );
            dynamics.push(Box::new(Tage::with_seeded_base(
                TageConfig::default(),
                priors,
            )));
        }
        Arena {
            index: sites
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, i as u32))
                .collect(),
            static_miss: vec![(0.0, 0.0); statics.len()],
            dyn_miss: vec![(0, 0); dynamics.len()],
            statics,
            dynamics,
            warmup_events,
            events: 0,
        }
    }

    /// The tallies of every scheme over the events seen so far.
    pub fn finish(self) -> ArenaResult {
        let metrics = esp_obs::global_metrics();
        metrics.counter("esp_sim_replays_total").add(1);
        metrics.counter("esp_sim_events_total").add(self.events);
        metrics
            .counter("esp_sim_predictor_ops_total")
            .add(self.events * self.dynamics.len() as u64);

        let statics = self.statics.iter().map(|s| s.name.clone());
        let dynamics = self.dynamics.iter().map(|d| d.name().to_string());
        let misses = self
            .static_miss
            .iter()
            .copied()
            .chain(self.dyn_miss.iter().map(|&(m, w)| (m as f64, w as f64)));
        ArenaResult {
            events: self.events,
            warmup_events: self.warmup_events.min(self.events),
            schemes: statics
                .chain(dynamics)
                .zip(misses)
                .map(|(name, (misses, warmup_misses))| SchemeResult {
                    name,
                    misses,
                    warmup_misses,
                })
                .collect(),
        }
    }
}

impl BranchSink for Arena<'_> {
    fn branch(&mut self, id: BranchId, taken: bool) {
        let site = *self
            .index
            .get(&id)
            .expect("interpreter reported a branch outside Program::branch_sites");
        let in_warmup = self.events < self.warmup_events;
        for (s, m) in self.statics.iter().zip(self.static_miss.iter_mut()) {
            let miss = match s.preds[site as usize] {
                Some(dir) if dir == taken => 0.0,
                Some(_) => 1.0,
                None => 0.5,
            };
            m.0 += miss;
            if in_warmup {
                m.1 += miss;
            }
        }
        let pc = site as u64;
        for (d, m) in self.dynamics.iter_mut().zip(self.dyn_miss.iter_mut()) {
            let pred = d.predict(pc);
            d.update(pc, taken, pred);
            if pred != taken {
                m.0 += 1;
                if in_warmup {
                    m.1 += 1;
                }
            }
        }
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::{BlockId, FuncId};

    fn site(b: u32) -> BranchId {
        BranchId {
            func: FuncId(0),
            block: BlockId(b),
        }
    }

    /// Site 0 always taken, site 1 alternating, `events_per_site` each.
    fn two_site_run(arena: &mut Arena<'_>, events_per_site: u32) {
        for i in 0..events_per_site {
            arena.branch(site(0), true);
            arena.branch(site(1), i % 2 == 0);
        }
    }

    fn sites() -> [BranchId; 2] {
        [site(0), site(1)]
    }

    #[test]
    fn static_scheme_accounting_matches_hand_counts() {
        let always = vec![Some(true), Some(true)];
        let uncovered = vec![Some(true), None];
        let statics = vec![
            StaticScheme {
                name: "always-taken".into(),
                preds: &always,
            },
            StaticScheme {
                name: "half-covered".into(),
                preds: &uncovered,
            },
        ];
        let mut arena = Arena::new(&sites(), statics, None, DEFAULT_WARMUP_EVENTS);
        two_site_run(&mut arena, 100);
        let r = arena.finish();
        // always-taken: site 0 never misses, site 1 misses the 50 not-taken.
        assert_eq!(r.scheme("always-taken").unwrap().misses, 50.0);
        // half-covered: site 1 uncovered → 0.5 × 100 events.
        assert_eq!(r.scheme("half-covered").unwrap().misses, 50.0);
        assert_eq!(r.events, 200);
    }

    #[test]
    fn dynamic_predictors_present_and_ordered() {
        let priors = vec![0.95, 0.5];
        let mut arena = Arena::new(&sites(), vec![], Some(&priors), DEFAULT_WARMUP_EVENTS);
        two_site_run(&mut arena, 50);
        let r = arena.finish();
        let names: Vec<&str> = r.schemes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["bimodal", "gshare", "tage", "esp+tage"]);
        // gshare learns the alternation; bimodal cannot.
        let g = r.scheme("gshare").unwrap().misses;
        let b = r.scheme("bimodal").unwrap().misses;
        assert!(g < b, "gshare {g} should beat bimodal {b} on alternation");
    }

    #[test]
    fn arena_is_deterministic() {
        let priors = vec![0.9, 0.1];
        let run = || {
            let mut arena = Arena::new(&sites(), vec![], Some(&priors), DEFAULT_WARMUP_EVENTS);
            two_site_run(&mut arena, 200);
            arena.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "does not cover the site table")]
    fn mismatched_scheme_length_panics() {
        let short = vec![Some(true)];
        let statics = vec![StaticScheme {
            name: "short".into(),
            preds: &short,
        }];
        Arena::new(&sites(), statics, None, DEFAULT_WARMUP_EVENTS);
    }

    #[test]
    fn warmup_window_clamps_to_event_count() {
        let mut arena = Arena::new(&sites(), vec![], None, DEFAULT_WARMUP_EVENTS);
        two_site_run(&mut arena, 3); // 6 events
        assert_eq!(arena.finish().warmup_events, 6);
    }

    #[test]
    fn warmup_tally_counts_only_the_first_events() {
        let never = vec![Some(false), Some(false)];
        let statics = vec![StaticScheme {
            name: "never-taken".into(),
            preds: &never,
        }];
        let mut arena = Arena::new(&sites(), statics, None, 4);
        two_site_run(&mut arena, 10);
        let r = arena.finish();
        assert_eq!(r.warmup_events, 4);
        // Events 0..4: site 0 taken twice (miss), site 1 taken once (miss).
        let s = r.scheme("never-taken").unwrap();
        assert_eq!((s.misses, s.warmup_misses), (15.0, 3.0));
    }
}
