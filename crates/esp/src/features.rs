//! The static feature set of the paper's Table 2.
//!
//! Twenty-four features per conditional branch: five opcode-flavoured
//! features of the branch and its operand definitions, three context
//! features (loop header, language, procedure kind) and eight structural
//! features for each of the two successors.
//!
//! Beyond the paper, an opt-in [`ExtendedFeatures`] block carries facts the
//! `esp-analyze` dataflow analyses derive (statically-decided direction,
//! null-test classification, loop-guard shape). It is attached lazily —
//! [`extract`] always leaves it `None`; the training and prediction paths
//! fill it in only when the encoder's feature set asks for it.

use esp_ir::defuse::{branch_compare_regs, defining_insn, defining_insn_before, used_before_def};
use esp_ir::term::TermKind;
use esp_ir::{
    BlockId, BranchId, BranchOp, FuncAnalysis, Function, Insn, Lang, Opcode, ProcKind, Program,
    ProgramAnalysis, Terminator,
};

/// The eight per-successor features (Table 2, features 9–16 for the taken
/// successor, 17–24 for the not-taken successor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuccessorFeatures {
    /// Feature 9/17: the branch block dominates this successor (D/ND).
    pub dominates: bool,
    /// Feature 10/18: the successor post-dominates the branch block
    /// (PD/NPD).
    pub postdominates: bool,
    /// Feature 11/19: the control transfer ending the successor block.
    pub ends_with: TermKind,
    /// Feature 12/20: the successor is a loop header or unconditionally
    /// passes control to one (LH/NLH).
    pub loop_header: bool,
    /// Feature 13/21: the edge to this successor is a loop back edge
    /// (LB/NLB).
    pub back_edge: bool,
    /// Feature 14/22: the edge to this successor is a loop exit edge
    /// (LE/NLE).
    pub exit_edge: bool,
    /// Feature 15/23: the successor uses a register compared by the branch
    /// before defining it (UBD/NU).
    pub use_before_def: bool,
    /// Feature 16/24: the successor contains a procedure call or
    /// unconditionally passes control to a block that does (PC/NPC).
    pub has_call: bool,
}

/// Analysis-derived facts of one branch, from `esp-analyze` (not part of
/// the paper's Table 2; encoded only under the extended feature set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendedFeatures {
    /// `Some(direction)` when dataflow analysis proves the branch
    /// one-sided.
    pub decided: Option<bool>,
    /// Null-test classification of the comparison.
    pub pointer_test: esp_analyze::PointerTest,
    /// The first compared register is a compile-time constant.
    pub lhs_const: bool,
    /// The condition is invariant in its innermost containing loop.
    pub invariant: bool,
    /// The branch is a loop-exit guard (varying value vs invariant bound).
    pub guard: bool,
    /// For a guard: the taken arm stays in the loop. Dependent feature —
    /// meaningful only when [`ExtendedFeatures::guard`] holds.
    pub guard_taken_stays: bool,
}

impl ExtendedFeatures {
    /// The all-unknown record, used when a site has no computed facts.
    pub fn unknown() -> ExtendedFeatures {
        ExtendedFeatures {
            decided: None,
            pointer_test: esp_analyze::PointerTest::No,
            lhs_const: false,
            invariant: false,
            guard: false,
            guard_taken_stays: false,
        }
    }
}

/// The complete Table 2 feature vector of one branch site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchFeatures {
    /// Feature 1: the branch opcode.
    pub br_opcode: BranchOp,
    /// Feature 2: branch direction — `true` for backward (B), `false` for
    /// forward (F).
    pub backward: bool,
    /// Feature 3: opcode of the instruction defining the branch's operand
    /// register, or `None` ("?") when it is defined in a previous block.
    pub operand_opcode: Option<Opcode>,
    /// Feature 4: opcode of the instruction defining the first source (RA)
    /// of the instruction in feature 3. `None` means "?"; only meaningful
    /// when [`BranchFeatures::ra_meaningful`].
    pub ra_opcode: Option<Opcode>,
    /// Whether feature 4 is meaningful (the feature-3 instruction exists and
    /// reads at least one register) — the paper's *dependent static feature*
    /// gating.
    pub ra_meaningful: bool,
    /// Feature 5: like feature 4 for the second source (RB).
    pub rb_opcode: Option<Opcode>,
    /// Whether feature 5 is meaningful.
    pub rb_meaningful: bool,
    /// Feature 6: the branch block is a loop header (LH/NLH).
    pub loop_header: bool,
    /// Feature 7: source language of the procedure (C or FORT).
    pub lang: Lang,
    /// Feature 8: procedure kind (Leaf / NonLeaf / CallSelf).
    pub proc_kind: ProcKind,
    /// Features 9–16: the taken successor.
    pub taken: SuccessorFeatures,
    /// Features 17–24: the not-taken successor.
    pub not_taken: SuccessorFeatures,
    /// Analysis-derived facts, attached only when the extended feature set
    /// is active; [`extract`] always leaves this `None`.
    pub extended: Option<ExtendedFeatures>,
}

/// Number of (conceptual) features, as in Table 2.
pub const FEATURE_COUNT: usize = 24;

fn successor_features(
    func: &Function,
    analysis: &FuncAnalysis,
    branch_block: BlockId,
    succ: BlockId,
    compare_regs: &[esp_ir::Reg],
) -> SuccessorFeatures {
    let succ_block = func.block(succ);
    SuccessorFeatures {
        dominates: analysis.dom.dominates(branch_block, succ),
        postdominates: analysis.pdom.dominates(succ, branch_block),
        ends_with: succ_block.term.kind(),
        loop_header: analysis.loops.leads_to_header(succ),
        back_edge: analysis.loops.is_back_edge(branch_block, succ),
        exit_edge: analysis.loops.is_exit_edge(branch_block, succ),
        use_before_def: compare_regs.iter().any(|r| used_before_def(succ_block, *r)),
        has_call: analysis.reaches_call[succ.index()],
    }
}

/// Extract the Table 2 features of one branch site.
///
/// # Panics
///
/// Panics if `site` does not name a conditional branch.
pub fn extract(prog: &Program, analysis: &ProgramAnalysis, site: BranchId) -> BranchFeatures {
    let func = prog.func(site.func);
    let fa = analysis.func(site.func);
    let block = func.block(site.block);
    let Terminator::CondBranch {
        op,
        rs,
        rt,
        taken,
        not_taken,
        ..
    } = &block.term
    else {
        panic!("{site} does not end in a conditional branch");
    };

    // Features 3–5: the operand-definition opcode chain.
    let def3 = defining_insn(block, *rs);
    let operand_opcode = def3.map(Insn::opcode);
    let (ra_opcode, ra_meaningful, rb_opcode, rb_meaningful) = match def3 {
        None => (None, false, None, false),
        Some(insn) => {
            // Position of the defining instruction, for scan bounds.
            let pos = block
                .insns
                .iter()
                .rposition(|i| std::ptr::eq(i, insn))
                .unwrap_or(block.insns.len());
            let uses = insn.uses();
            let ra = uses.first().copied();
            let rb = uses.get(1).copied();
            let look = |r: Option<esp_ir::Reg>| -> (Option<Opcode>, bool) {
                match r {
                    None => (None, false),
                    Some(r) => (defining_insn_before(block, r, pos).map(Insn::opcode), true),
                }
            };
            let (rao, ram) = look(ra);
            let (rbo, rbm) = look(rb);
            (rao, ram, rbo, rbm)
        }
    };

    // For the two-register branch flavour the branch itself compares; treat
    // rt's defining insn as the RB chain when feature 3 is absent.
    let _ = rt;

    let compare_regs = branch_compare_regs(block);

    BranchFeatures {
        br_opcode: *op,
        backward: fa.is_backward(site.block, *taken),
        operand_opcode,
        ra_opcode,
        ra_meaningful,
        rb_opcode,
        rb_meaningful,
        loop_header: fa.loops.is_header(site.block),
        lang: func.lang,
        proc_kind: prog.proc_kind(site.func),
        taken: successor_features(func, fa, site.block, *taken, &compare_regs),
        not_taken: successor_features(func, fa, site.block, *not_taken, &compare_regs),
        extended: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_lang::{compile_source, CompilerConfig};

    fn features_of(src: &str) -> Vec<BranchFeatures> {
        let prog = compile_source("t", src, Lang::C, &CompilerConfig::default()).unwrap();
        let analysis = ProgramAnalysis::analyze(&prog);
        prog.branch_sites()
            .into_iter()
            .map(|s| extract(&prog, &analysis, s))
            .collect()
    }

    #[test]
    fn loop_latch_features() {
        let feats = features_of(
            "int main() { int i = 0; int s = 0; while (i < 50) { s = s + i; i = i + 1; } return s; }",
        );
        // Rotated loop: some branch must be backward with a back edge on the
        // taken side.
        let latch = feats
            .iter()
            .find(|f| f.taken.back_edge)
            .expect("no latch branch found");
        assert!(latch.backward);
        assert!(!latch.not_taken.back_edge);
        assert!(latch.taken.loop_header, "back edge targets the header");
        assert_eq!(latch.lang, Lang::C);
    }

    #[test]
    fn operand_opcode_chain() {
        // `if (x < n)` on Alpha: bne flag, flag defined by cmplt in-block,
        // whose sources are defined by ldi/mov earlier in the block or in
        // previous blocks.
        let feats =
            features_of("int main() { int x = 3; int n = 9; if (x < n) { return 1; } return 0; }");
        let f = &feats[0];
        assert_eq!(f.br_opcode, BranchOp::Bne);
        assert!(matches!(f.operand_opcode, Some(Opcode::CmpLt)));
        // cmplt reads two registers, so RA/RB are meaningful
        assert!(f.ra_meaningful && f.rb_meaningful);
    }

    #[test]
    fn direct_branch_has_question_marks() {
        // `if (x < 0)` lowers to a direct blt on a register defined in a
        // previous block (after -O1 block layout) or in the same block.
        let feats = features_of(
            r#"
            int f(int x) { if (x < 0) { return 0 - 1; } return x; }
            int main() { return f(7); }
            "#,
        );
        let blt = feats
            .iter()
            .find(|f| f.br_opcode == BranchOp::Blt)
            .expect("direct blt expected");
        // x is the parameter: defined in no block => '?'
        assert_eq!(blt.operand_opcode, None);
        assert!(!blt.ra_meaningful && !blt.rb_meaningful);
    }

    #[test]
    fn call_and_return_successors() {
        let feats = features_of(
            r#"
            int helper(int v) { return v * 2; }
            int main() {
                int x = 4;
                if (x > 0) { x = helper(x); } else { return 0; }
                return x;
            }
            "#,
        );
        assert!(
            feats
                .iter()
                .any(|f| f.taken.has_call || f.not_taken.has_call),
            "some successor must contain a call: {feats:?}"
        );
        assert!(
            feats.iter().any(|f| f.taken.ends_with == TermKind::Return
                || f.not_taken.ends_with == TermKind::Return),
            "some successor must end in a return"
        );
    }

    #[test]
    fn proc_kind_recursive() {
        let feats = features_of(
            r#"
            int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
            int main() { return fact(6); }
            "#,
        );
        assert!(
            feats.iter().any(|f| f.proc_kind == ProcKind::CallSelf),
            "branch in recursive function must report CallSelf"
        );
    }

    #[test]
    fn fortran_language_feature() {
        let src = r#"
            PROGRAM P
              INTEGER I, S
              S = 0
              DO I = 1, 40
                IF (MOD(I, 2) .EQ. 0) THEN
                  S = S + I
                ENDIF
              ENDDO
            END
        "#;
        let prog = compile_source("t", src, Lang::Fort, &CompilerConfig::default()).unwrap();
        let analysis = ProgramAnalysis::analyze(&prog);
        for site in prog.branch_sites() {
            assert_eq!(extract(&prog, &analysis, site).lang, Lang::Fort);
        }
    }
}
