//! Pins the contract the arena relies on between the streaming
//! [`esp_exec::BranchSink`] and the aggregated [`esp_exec::Profile`]:
//! per-site counts aggregated from the event stream must equal the
//! interpreter's own `BranchCounts`, and the profile's `perfect_misses`
//! must equal `min(taken, not_taken)` computed from the stream. Referenced
//! by the doc-comments on `Profile::taken_prob` /
//! `BranchCounts::perfect_misses`.

use std::collections::HashMap;

use esp_exec::ExecLimits;
use esp_ir::BranchId;
use esp_lang::CompilerConfig;

#[test]
fn trace_aggregates_match_profile_counts_and_perfect_misses() {
    let bench = esp_corpus::suite()
        .into_iter()
        .find(|b| b.name == "grep")
        .expect("grep is in the suite");
    let prog = bench.compile(&CompilerConfig::default()).expect("compiles");
    let limits = ExecLimits {
        max_insns: 80_000_000,
        ..ExecLimits::default()
    };

    // Aggregate (executed, taken) per site from the event stream.
    let mut counts: HashMap<BranchId, (u64, u64)> = HashMap::new();
    let mut events = 0u64;
    let outcome = esp_exec::run_with_sink(&prog, &limits, &mut |id: BranchId, t: bool| {
        let c = counts.entry(id).or_default();
        c.0 += 1;
        c.1 += t as u64;
        events += 1;
    })
    .expect("grep runs");
    let profile = &outcome.profile;

    // Total events equal the profile's dynamic conditional-branch count.
    assert_eq!(events, profile.dyn_cond_branches);

    let sites = prog.branch_sites();
    assert!(
        counts.keys().all(|id| sites.contains(id)),
        "every event names a site of Program::branch_sites"
    );
    let mut checked_sites = 0usize;
    let mut mixed_sites = 0usize;
    for &site in &sites {
        let (executed, taken) = counts.get(&site).copied().unwrap_or_default();
        match profile.counts(site) {
            Some(c) => {
                assert_eq!(c.executed, executed, "site {site:?} executed");
                assert_eq!(c.taken, taken, "site {site:?} taken");

                // perfect_misses is the minority-direction count.
                let not_taken = executed - taken;
                assert_eq!(
                    c.perfect_misses(),
                    taken.min(not_taken),
                    "site {site:?} perfect_misses"
                );

                // taken_prob is the exact event-stream frequency.
                let p = c.taken_prob().expect("executed > 0");
                assert!((p - taken as f64 / executed as f64).abs() < 1e-12);

                checked_sites += 1;
                if taken > 0 && not_taken > 0 {
                    mixed_sites += 1;
                }
            }
            None => {
                // Never-executed sites must have no events in the stream.
                assert_eq!(executed, 0, "site {site:?} executed but unprofiled");
            }
        }
    }
    assert!(checked_sites > 10, "grep exercises many sites");
    assert!(
        mixed_sites > 0,
        "need at least one site taken both ways for perfect_misses to bite"
    );
}
