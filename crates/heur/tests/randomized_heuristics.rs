//! Randomized tests for the heuristic predictors over randomly generated
//! CFGs: APHC consistency, Dempster–Shafer algebra, and heuristic
//! well-definedness on arbitrary branch shapes, drawn from the in-tree
//! seeded PCG32 stream.

use esp_heur::{measure_rates, Aphc, BranchCtx, Btfnt, Dshc, Heuristic, HeuristicRates};
use esp_ir::{BlockId, BranchOp, FuncId, FunctionBuilder, Isa, Lang, Program, ProgramAnalysis};
use esp_runtime::Pcg32;

const CASES: u64 = 64;

/// Random CFG over `n` blocks, every block a conditional branch except a
/// final return block; some blocks get stores/calls to trigger the
/// successor-content heuristics.
#[derive(Debug, Clone)]
struct Shape {
    arms: Vec<(usize, usize, bool, bool)>, // (taken, not_taken, add_store, end_call)
}

fn random_shape(rng: &mut Pcg32) -> Shape {
    let n = rng.gen_range(1..10usize);
    let arms = (0..n)
        .map(|_| {
            (
                rng.gen_range(0..64usize),
                rng.gen_range(0..64usize),
                rng.gen_bool(0.5),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    Shape { arms }
}

fn for_random_shapes(base_seed: u64, mut check: impl FnMut(&Shape)) {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(base_seed.wrapping_add(case));
        check(&random_shape(&mut rng));
    }
}

fn build(shape: &Shape) -> Program {
    let n = shape.arms.len() + 1; // + return block
    let mut b = FunctionBuilder::new("main", 0, Lang::C);
    let c = b.fresh_reg();
    let buf = b.fresh_reg();
    for _ in 1..n {
        b.new_block();
    }
    b.push_load_imm(BlockId(0), c, 1);
    b.push(BlockId(0), esp_ir::Insn::AllocImm { dst: buf, words: 2 });
    // a tiny leaf callee so call-terminators have a target
    let mut callee = FunctionBuilder::new("leaf", 0, Lang::C);
    let ce = callee.entry_block();
    callee.set_return(ce, None);

    for (i, (t, f, store, call)) in shape.arms.iter().enumerate() {
        let id = BlockId(i as u32);
        if *store {
            b.push_store(id, c, buf, 0);
        }
        if *call && i + 1 < n {
            // end the block with a call instead of a branch sometimes
            b.set_call(id, FuncId(1), vec![], None, BlockId((i + 1) as u32));
        } else {
            b.set_cond_branch(
                id,
                BranchOp::Bne,
                c,
                None,
                BlockId((t % n) as u32),
                BlockId((f % n) as u32),
            );
        }
    }
    b.set_return(BlockId((n - 1) as u32), None);
    Program {
        name: "prop".into(),
        funcs: vec![b.finish(), callee.finish()],
        main: FuncId(0),
        isa: Isa::Alpha,
    }
}

#[test]
fn every_heuristic_is_total_on_random_cfgs() {
    for_random_shapes(0x707A, |s| {
        let prog = build(s);
        let analysis = ProgramAnalysis::analyze(&prog);
        let aphc = Aphc::table1_order();
        let dshc = Dshc::new(HeuristicRates::ball_larus_mips());
        for site in prog.branch_sites() {
            let ctx = BranchCtx::new(&prog, &analysis, site);
            let _ = Btfnt.predict(&ctx);
            for h in Heuristic::TABLE1_ORDER {
                let _ = h.predict(&ctx); // must not panic
            }
            // APHC == first applicable heuristic
            let manual = Heuristic::TABLE1_ORDER.iter().find_map(|h| h.predict(&ctx));
            assert_eq!(aphc.predict(&ctx), manual);
            // DSHC coverage == any heuristic applies
            let covered = Heuristic::TABLE1_ORDER
                .iter()
                .any(|h| h.predict(&ctx).is_some());
            assert_eq!(dshc.predict(&ctx).is_some(), covered);
            if let Some(p) = dshc.prob_taken(&ctx) {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    });
}

#[test]
fn unanimous_heuristics_force_the_dshc_direction() {
    for_random_shapes(0x0514, |s| {
        let prog = build(s);
        let analysis = ProgramAnalysis::analyze(&prog);
        let dshc = Dshc::new(HeuristicRates::ball_larus_mips());
        for site in prog.branch_sites() {
            let ctx = BranchCtx::new(&prog, &analysis, site);
            let preds: Vec<bool> = Heuristic::TABLE1_ORDER
                .iter()
                .filter_map(|h| h.predict(&ctx))
                .collect();
            if !preds.is_empty() && preds.iter().all(|p| *p == preds[0]) {
                // all applicable heuristics agree and all hit rates are > 0.5,
                // so Dempster-Shafer must follow them
                assert_eq!(dshc.predict(&ctx), Some(preds[0]));
            }
        }
    });
}

#[test]
fn measured_rates_are_probabilities() {
    for_random_shapes(0x4a7e, |s| {
        let prog = build(s);
        let analysis = ProgramAnalysis::analyze(&prog);
        // fabricate a profile by running the program only if it terminates
        // quickly; random CFGs may loop forever, so bound the budget.
        let limits = esp_exec::ExecLimits {
            max_insns: 20_000,
            ..Default::default()
        };
        if let Ok(out) = esp_exec::run(&prog, &limits) {
            let rates = measure_rates([(&prog, &analysis, &out.profile)]);
            for h in Heuristic::TABLE1_ORDER {
                let r = rates.hit_rate(h);
                assert!((0.0..=1.0).contains(&r), "{}: {r}", h.name());
                assert!((rates.miss_rate(h) - (1.0 - r)).abs() < 1e-12);
            }
        }
    });
}
