//! Sparse conditional constant propagation.
//!
//! The lattice tracks, per register, either a known runtime value or
//! "overdefined". There is no optimistic ⊤ element inside a state: the
//! interpreter zero-initialises every register of a fresh frame
//! (`Value::default()` is `Int(0)`), so at function entry every non-param
//! register *is* the constant 0 and parameters are the only unknowns.
//! Unvisited blocks are the optimistic element, carried as `None` by the
//! solver — SCCP's executable-edge tracking.
//!
//! **Soundness contract**: every fold below mirrors `esp-exec`'s machine
//! semantics exactly — wrapping integer arithmetic, division/remainder by
//! zero yielding 0, shift counts masked to 6 bits, float division by zero
//! yielding 0.0, `as`-cast conversions. An operand whose constant has the
//! wrong runtime type (the interpreter would abort the run with a type
//! error) degrades to overdefined, never to a wrong constant, and branches
//! over such operands stay undecided. This is what lets the linter's
//! "statically decided" claims be cross-checked against execution profiles.

use esp_ir::cfg::{Cfg, Edge, EdgeKind};
use esp_ir::insn::{AluOp, CmpOp, FpuOp, Insn};
use esp_ir::term::{BranchOp, Terminator};
use esp_ir::{BlockId, Function};

use crate::solver::{solve, Analysis, Direction, Solution};

/// One register's constant lattice value. Floats are stored as bit
/// patterns so equality (and hence the fixpoint check) is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lat {
    /// Known integer value.
    Int(i64),
    /// Known float value (IEEE-754 bits).
    Float(u64),
    /// More than one runtime value possible.
    Over,
}

impl Lat {
    /// Lattice join: equal values stay, anything else is overdefined.
    fn join(self, other: Lat) -> Lat {
        if self == other {
            self
        } else {
            Lat::Over
        }
    }

    fn as_int(self) -> Option<i64> {
        match self {
            Lat::Int(v) => Some(v),
            _ => None,
        }
    }

    fn as_float(self) -> Option<f64> {
        match self {
            Lat::Float(b) => Some(f64::from_bits(b)),
            _ => None,
        }
    }

    fn float(v: f64) -> Lat {
        Lat::Float(v.to_bits())
    }
}

/// Interpreter-exact integer ALU fold (`esp_exec` machine semantics).
fn int_alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
    }
}

fn int_cmp(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Interpreter-exact float compare: NaN compares false except under `Ne`,
/// exactly as Rust's primitive comparisons behave.
fn float_cmp(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn fpu(op: FpuOp, a: f64, b: Option<f64>) -> f64 {
    match op {
        FpuOp::FAdd => a + b.unwrap_or(0.0),
        FpuOp::FSub => a - b.unwrap_or(0.0),
        FpuOp::FMul => a * b.unwrap_or(0.0),
        FpuOp::FDiv => {
            let b = b.unwrap_or(0.0);
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        FpuOp::FAbs => a.abs(),
        FpuOp::FNeg => -a,
    }
}

/// The conditional branch's outcome under constant operands, or `None` when
/// an operand is overdefined or has the wrong runtime type (the interpreter
/// would abort, so neither successor is *known* to execute — treating the
/// branch as undecided is the conservative choice).
fn decide_branch(op: BranchOp, rs: Lat, rt: Option<Lat>) -> Option<bool> {
    if op.is_float() {
        let a = rs.as_float()?;
        let b = match rt {
            Some(l) => l.as_float()?,
            None => 0.0,
        };
        let cmp = match op {
            BranchOp::Fbeq => CmpOp::Eq,
            BranchOp::Fbne => CmpOp::Ne,
            BranchOp::Fblt => CmpOp::Lt,
            BranchOp::Fble => CmpOp::Le,
            BranchOp::Fbgt => CmpOp::Gt,
            BranchOp::Fbge => CmpOp::Ge,
            _ => unreachable!("is_float filtered"),
        };
        Some(float_cmp(cmp, a, b))
    } else {
        let a = rs.as_int()?;
        let b = match rt {
            Some(l) => l.as_int()?,
            None => 0,
        };
        let cmp = match op {
            BranchOp::Beq => CmpOp::Eq,
            BranchOp::Bne => CmpOp::Ne,
            BranchOp::Blt => CmpOp::Lt,
            BranchOp::Ble => CmpOp::Le,
            BranchOp::Bgt => CmpOp::Gt,
            BranchOp::Bge => CmpOp::Ge,
            _ => unreachable!("non-float filtered"),
        };
        Some(int_cmp(cmp, a, b))
    }
}

struct Sccp<'a> {
    func: &'a Function,
}

impl Sccp<'_> {
    fn fold(&self, insn: &Insn, s: &mut [Lat]) {
        let get = |s: &[Lat], r: esp_ir::Reg| s[r.index()];
        match insn {
            Insn::Alu { op, dst, a, b } => {
                s[dst.index()] = match (get(s, *a).as_int(), get(s, *b).as_int()) {
                    (Some(a), Some(b)) => Lat::Int(int_alu(*op, a, b)),
                    _ => Lat::Over,
                };
            }
            Insn::AluImm { op, dst, a, imm } => {
                s[dst.index()] = match get(s, *a).as_int() {
                    Some(a) => Lat::Int(int_alu(*op, a, *imm)),
                    None => Lat::Over,
                };
            }
            Insn::Cmp { op, dst, a, b } => {
                s[dst.index()] = match (get(s, *a).as_int(), get(s, *b).as_int()) {
                    (Some(a), Some(b)) => Lat::Int(int_cmp(*op, a, b) as i64),
                    _ => Lat::Over,
                };
            }
            Insn::CmpImm { op, dst, a, imm } => {
                s[dst.index()] = match get(s, *a).as_int() {
                    Some(a) => Lat::Int(int_cmp(*op, a, *imm) as i64),
                    None => Lat::Over,
                };
            }
            Insn::Fpu { op, dst, a, b } => {
                let av = get(s, *a).as_float();
                // Outer None = overdefined / mistyped second operand;
                // inner None = genuinely unary.
                let bv = match b {
                    Some(b) => get(s, *b).as_float().map(Some),
                    None => Some(None),
                };
                s[dst.index()] = match (av, bv) {
                    (Some(a), Some(b)) => Lat::float(fpu(*op, a, b)),
                    _ => Lat::Over,
                };
            }
            Insn::FCmp { op, dst, a, b } => {
                s[dst.index()] = match (get(s, *a).as_float(), get(s, *b).as_float()) {
                    (Some(a), Some(b)) => Lat::Int(float_cmp(*op, a, b) as i64),
                    _ => Lat::Over,
                };
            }
            Insn::LoadImm { dst, imm } => s[dst.index()] = Lat::Int(*imm),
            Insn::LoadFImm { dst, imm } => s[dst.index()] = Lat::float(*imm),
            Insn::Mov { dst, src } => s[dst.index()] = get(s, *src),
            Insn::CMov { c, dst, src } => {
                s[dst.index()] = match get(s, *c) {
                    Lat::Int(0) => get(s, *dst),
                    Lat::Int(_) => get(s, *src),
                    // Overdefined or mistyped condition: either value.
                    _ => get(s, *dst).join(get(s, *src)),
                };
            }
            Insn::CvtFI { dst, a } => {
                s[dst.index()] = match get(s, *a).as_float() {
                    Some(v) => Lat::Int(v as i64),
                    None => Lat::Over,
                };
            }
            Insn::CvtIF { dst, a } => {
                s[dst.index()] = match get(s, *a).as_int() {
                    Some(v) => Lat::float(v as f64),
                    None => Lat::Over,
                };
            }
            // Memory contents and allocation addresses depend on the heap.
            Insn::Load { dst, .. } | Insn::Alloc { dst, .. } | Insn::AllocImm { dst, .. } => {
                s[dst.index()] = Lat::Over;
            }
            Insn::Store { .. } => {}
        }
    }
}

impl Analysis for Sccp<'_> {
    type State = Vec<Lat>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Vec<Lat> {
        // Fresh frames zero-initialise every register; parameters arrive
        // from arbitrary call sites and are the only unknowns.
        let mut s = vec![Lat::Int(0); self.func.num_regs as usize];
        for p in &self.func.params {
            s[p.index()] = Lat::Over;
        }
        s
    }

    fn join(&self, into: &mut Vec<Lat>, from: &Vec<Lat>) {
        for (a, b) in into.iter_mut().zip(from) {
            *a = a.join(*b);
        }
    }

    fn transfer(&self, block: BlockId, s: &mut Vec<Lat>) {
        let bb = self.func.block(block);
        for insn in &bb.insns {
            self.fold(insn, s);
        }
        // Call terminators define their destination at block exit; the
        // callee's return value is unknown.
        if let Terminator::Call { dst: Some(d), .. } = &bb.term {
            s[d.index()] = Lat::Over;
        }
    }

    fn edge_state(&self, edge: &Edge, out: &Vec<Lat>) -> Option<Vec<Lat>> {
        match &self.func.block(edge.from).term {
            Terminator::CondBranch { op, rs, rt, .. } => {
                let rt_lat = rt.map(|r| out[r.index()]);
                match decide_branch(*op, out[rs.index()], rt_lat) {
                    Some(taken) => {
                        let live = if taken {
                            EdgeKind::Taken
                        } else {
                            EdgeKind::NotTaken
                        };
                        (edge.kind == live).then(|| out.clone())
                    }
                    None => Some(out.clone()),
                }
            }
            Terminator::Switch { index, targets, .. } => match out[index.index()] {
                Lat::Int(i) => {
                    let live = if i >= 0 && (i as usize) < targets.len() {
                        EdgeKind::SwitchCase(i as u32)
                    } else {
                        EdgeKind::SwitchDefault
                    };
                    (edge.kind == live).then(|| out.clone())
                }
                // A float index aborts the run; conservatively keep edges.
                _ => Some(out.clone()),
            },
            _ => Some(out.clone()),
        }
    }
}

/// The SCCP fixpoint of one function.
#[derive(Debug, Clone)]
pub struct SccpOutcome {
    solution: Solution<Vec<Lat>>,
    /// `decided[b]` is `Some(taken)` when block `b` ends in a conditional
    /// branch whose direction is proved constant (on an executable block).
    pub decided: Vec<Option<bool>>,
}

impl SccpOutcome {
    /// Whether any executable path reaches `b` (entry-reachability *and*
    /// constant-pruned edges considered).
    pub fn reachable(&self, b: BlockId) -> bool {
        self.solution.input[b.index()].is_some()
    }

    /// The lattice value of `reg` at the end of `b`, if `b` is executable.
    pub fn value_at_exit(&self, b: BlockId, reg: esp_ir::Reg) -> Option<Lat> {
        self.solution.output[b.index()]
            .as_ref()
            .map(|s| s[reg.index()])
    }
}

/// Run SCCP over `func`.
pub fn sccp(func: &Function, cfg: &Cfg) -> SccpOutcome {
    let analysis = Sccp { func };
    let solution = solve(cfg, &analysis);
    let decided = (0..func.num_blocks())
        .map(|i| {
            let b = BlockId(i as u32);
            let out = solution.output[i].as_ref()?;
            let Terminator::CondBranch { op, rs, rt, .. } = &func.block(b).term else {
                return None;
            };
            decide_branch(*op, out[rs.index()], rt.map(|r| out[r.index()]))
        })
        .collect();
    SccpOutcome { solution, decided }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::builder::FunctionBuilder;
    use esp_ir::Lang;

    /// entry: c = 7; cmp t, c < 5; bne t -> dead, live
    #[test]
    fn constant_branch_is_decided_and_dead_arm_pruned() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let c = b.fresh_reg();
        let t = b.fresh_reg();
        let e = b.entry_block();
        let dead = b.new_block();
        let live = b.new_block();
        b.push_load_imm(e, c, 7);
        b.push_cmp_imm(e, CmpOp::Lt, t, c, 5);
        b.set_cond_branch(e, BranchOp::Bne, t, None, dead, live);
        b.set_return(dead, None);
        b.set_return(live, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let out = sccp(&f, &cfg);
        assert_eq!(out.decided[0], Some(false), "7 < 5 is false => not taken");
        assert!(!out.reachable(BlockId(1)), "taken arm must be pruned");
        assert!(out.reachable(BlockId(2)));
    }

    #[test]
    fn zero_initialised_registers_are_constants() {
        // An undefined register reads as 0 at runtime; beq r, taken.
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let r = b.fresh_reg();
        let e = b.entry_block();
        let yes = b.new_block();
        let no = b.new_block();
        b.set_cond_branch(e, BranchOp::Beq, r, None, yes, no);
        b.set_return(yes, None);
        b.set_return(no, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let out = sccp(&f, &cfg);
        assert_eq!(out.decided[0], Some(true), "r == 0 at entry");
        assert!(!out.reachable(BlockId(2)));
    }

    #[test]
    fn params_are_unknown() {
        let mut b = FunctionBuilder::new("t", 1, Lang::C);
        let p = esp_ir::Reg(0); // first param
        let e = b.entry_block();
        let yes = b.new_block();
        let no = b.new_block();
        b.set_cond_branch(e, BranchOp::Beq, p, None, yes, no);
        b.set_return(yes, None);
        b.set_return(no, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let out = sccp(&f, &cfg);
        assert_eq!(out.decided[0], None);
        assert!(out.reachable(BlockId(1)) && out.reachable(BlockId(2)));
    }

    #[test]
    fn division_by_zero_folds_to_zero_like_the_interpreter() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let x = b.fresh_reg();
        let z = b.fresh_reg();
        let d = b.fresh_reg();
        let e = b.entry_block();
        let yes = b.new_block();
        let no = b.new_block();
        b.push_load_imm(e, x, 41);
        b.push_load_imm(e, z, 0);
        b.push_alu(e, AluOp::Div, d, x, z);
        b.set_cond_branch(e, BranchOp::Beq, d, None, yes, no);
        b.set_return(yes, None);
        b.set_return(no, None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let out = sccp(&f, &cfg);
        assert_eq!(out.value_at_exit(BlockId(0), d), Some(Lat::Int(0)));
        assert_eq!(out.decided[0], Some(true));
    }
}
