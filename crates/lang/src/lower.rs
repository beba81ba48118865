//! Code generation: AST → [`esp_ir`] with ISA-flavoured branch selection and
//! optional if-conversion to conditional moves (Alpha only).
//!
//! The branch-selection rules mirror the architectural differences the
//! paper's cross-architecture study turns on (§5.2.1):
//!
//! * **Alpha** — conditional branches test one register against zero. A
//!   general comparison materialises a flag with `cmp*` and branches with
//!   `bne flag`; comparisons against literal zero use the direct `B*`/`FB*`
//!   forms. `if (x) y = e;` becomes a conditional move when if-conversion is
//!   enabled.
//! * **MIPS** — `beq`/`bne` compare two registers directly; relational
//!   comparisons go through a flag (`slt`-style) and an explicit zero
//!   register; there is no conditional move.

use std::collections::HashMap;

use esp_ir::{
    AluOp, BlockId, BranchOp, CmpOp, FpuOp, FuncId, Function, FunctionBuilder, Insn, Isa, Reg,
};

use crate::ast::{BinOp, Expr, FuncDecl, LValue, Module, Stmt, Type, UnOp};
use crate::check::Signatures;

/// Code-generation options (a subset of
/// [`crate::config::CompilerConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct LowerOptions {
    /// Target ISA flavour.
    pub isa: Isa,
    /// Convert eligible `if`s into conditional moves (Alpha only; ignored on
    /// MIPS, which has no conditional move).
    pub cmov: bool,
}

struct Lower<'m> {
    b: FunctionBuilder,
    cur: Option<BlockId>,
    env: Vec<HashMap<String, (Reg, Type)>>,
    func_ids: &'m HashMap<String, FuncId>,
    sigs: &'m Signatures,
    opts: LowerOptions,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockId, BlockId)>,
    ret_ty: Option<Type>,
}

impl Lower<'_> {
    /// The block currently receiving code, creating a fresh (unreachable)
    /// one when the previous statement terminated control flow.
    fn cur(&mut self) -> BlockId {
        match self.cur {
            Some(b) => b,
            None => {
                let b = self.b.new_block();
                self.cur = Some(b);
                b
            }
        }
    }

    fn emit(&mut self, insn: Insn) {
        let c = self.cur();
        self.b.push(c, insn);
    }

    /// End the current block with an unconditional transfer to `to`.
    /// Jump-vs-fallthrough is normalised later by the layout pass.
    fn seal_jump(&mut self, to: BlockId) {
        let c = self.cur();
        self.b.set_jump(c, to);
        self.cur = None;
    }

    /// End the current block with a conditional branch; `taken` is the
    /// condition-true target.
    fn seal_branch(
        &mut self,
        op: BranchOp,
        rs: Reg,
        rt: Option<Reg>,
        taken: BlockId,
        not_taken: BlockId,
    ) {
        let c = self.cur();
        self.b.set_cond_branch(c, op, rs, rt, taken, not_taken);
        self.cur = None;
    }

    fn lookup(&self, name: &str) -> (Reg, Type) {
        self.env
            .iter()
            .rev()
            .find_map(|s| s.get(name).copied())
            .unwrap_or_else(|| panic!("unbound variable `{name}` reached codegen"))
    }

    /// Bind `name`; later passes (loop unrolling) may duplicate `Let`s, so
    /// rebinding simply allocates a fresh register.
    fn bind(&mut self, name: &str, ty: Type) -> Reg {
        let r = self.b.fresh_reg();
        self.env
            .last_mut()
            .expect("env never empty")
            .insert(name.to_string(), (r, ty));
        r
    }

    // ----- expressions ---------------------------------------------------

    fn lower_expr(&mut self, e: &Expr) -> (Reg, Type) {
        match e {
            Expr::Int(v) => {
                let r = self.b.fresh_reg();
                self.emit(Insn::LoadImm { dst: r, imm: *v });
                (r, Type::Int)
            }
            Expr::Float(v) => {
                let r = self.b.fresh_reg();
                self.emit(Insn::LoadFImm { dst: r, imm: *v });
                (r, Type::Float)
            }
            Expr::Null => {
                let r = self.b.fresh_reg();
                self.emit(Insn::LoadImm { dst: r, imm: 0 });
                (r, Type::PtrInt)
            }
            Expr::Var(name) => self.lookup(name),
            Expr::Un(op, inner) => self.lower_unary(*op, inner),
            Expr::Bin(op, a, b) if op.is_logical() => self.lower_logical_value(*op, a, b),
            Expr::Bin(op, a, b) if op.is_cmp() => {
                let flag = self.lower_cmp_flag(*op, a, b);
                (flag, Type::Int)
            }
            Expr::Bin(op, a, b) => self.lower_arith(*op, a, b),
            Expr::Index(base, idx) => {
                let (rb, tb) = self.lower_expr(base);
                let elem = tb.elem().expect("checker guarantees pointer base");
                let dst = self.b.fresh_reg();
                match idx.as_ref() {
                    Expr::Int(k) => self.emit(Insn::Load {
                        dst,
                        base: rb,
                        offset: *k,
                    }),
                    _ => {
                        let (ri, _) = self.lower_expr(idx);
                        let addr = self.b.fresh_reg();
                        self.emit(Insn::Alu {
                            op: AluOp::Add,
                            dst: addr,
                            a: rb,
                            b: ri,
                        });
                        self.emit(Insn::Load {
                            dst,
                            base: addr,
                            offset: 0,
                        });
                    }
                }
                (dst, elem)
            }
            Expr::Call(name, args) => {
                let (r, t) = self.lower_call(name, args);
                (
                    r.expect("checker rejects void calls in value position"),
                    t.expect("checker rejects void calls in value position"),
                )
            }
            Expr::Alloc(ty, len) => {
                let dst = self.b.fresh_reg();
                match len.as_ref() {
                    Expr::Int(k) => self.emit(Insn::AllocImm { dst, words: *k }),
                    _ => {
                        let (rl, _) = self.lower_expr(len);
                        self.emit(Insn::Alloc { dst, words: rl });
                    }
                }
                let pty = if *ty == Type::Int {
                    Type::PtrInt
                } else {
                    Type::PtrFloat
                };
                (dst, pty)
            }
            Expr::Cast(ty, inner) => {
                let (r, it) = self.lower_expr(inner);
                match (it, *ty) {
                    (Type::Float, t) if t.is_intlike() => {
                        let dst = self.b.fresh_reg();
                        self.emit(Insn::CvtFI { dst, a: r });
                        (dst, t)
                    }
                    (it, Type::Float) if it.is_intlike() => {
                        let dst = self.b.fresh_reg();
                        self.emit(Insn::CvtIF { dst, a: r });
                        (dst, Type::Float)
                    }
                    // int-like <-> int-like and float -> float are register
                    // reinterpretations.
                    _ => (r, *ty),
                }
            }
        }
    }

    fn lower_unary(&mut self, op: UnOp, inner: &Expr) -> (Reg, Type) {
        match op {
            UnOp::Neg => {
                let (r, t) = self.lower_expr(inner);
                let dst = self.b.fresh_reg();
                if t == Type::Float {
                    self.emit(Insn::Fpu {
                        op: FpuOp::FNeg,
                        dst,
                        a: r,
                        b: None,
                    });
                    (dst, Type::Float)
                } else {
                    let zero = self.b.fresh_reg();
                    self.emit(Insn::LoadImm { dst: zero, imm: 0 });
                    self.emit(Insn::Alu {
                        op: AluOp::Sub,
                        dst,
                        a: zero,
                        b: r,
                    });
                    (dst, Type::Int)
                }
            }
            UnOp::Not => {
                let (r, _) = self.lower_expr(inner);
                let dst = self.b.fresh_reg();
                self.emit(Insn::CmpImm {
                    op: CmpOp::Eq,
                    dst,
                    a: r,
                    imm: 0,
                });
                (dst, Type::Int)
            }
            UnOp::Abs => {
                let (r, _) = self.lower_expr(inner);
                let dst = self.b.fresh_reg();
                self.emit(Insn::Fpu {
                    op: FpuOp::FAbs,
                    dst,
                    a: r,
                    b: None,
                });
                (dst, Type::Float)
            }
        }
    }

    fn lower_arith(&mut self, op: BinOp, a: &Expr, b: &Expr) -> (Reg, Type) {
        let (ra, ta) = self.lower_expr(a);
        // Result type follows the checker's rules: float op float is float,
        // pointer arithmetic keeps the pointer type.
        let alu = match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div => AluOp::Div,
            BinOp::Rem => AluOp::Rem,
            _ => unreachable!("comparisons and logicals handled elsewhere"),
        };
        if ta == Type::Float {
            let (rb, _) = self.lower_expr(b);
            let fop = match op {
                BinOp::Add => FpuOp::FAdd,
                BinOp::Sub => FpuOp::FSub,
                BinOp::Mul => FpuOp::FMul,
                BinOp::Div => FpuOp::FDiv,
                _ => unreachable!("checker rejects float remainder"),
            };
            let dst = self.b.fresh_reg();
            self.emit(Insn::Fpu {
                op: fop,
                dst,
                a: ra,
                b: Some(rb),
            });
            return (dst, Type::Float);
        }
        let rty = if ta.is_ptr() { ta } else { Type::Int };
        let dst = self.b.fresh_reg();
        if let Expr::Int(k) = b {
            self.emit(Insn::AluImm {
                op: alu,
                dst,
                a: ra,
                imm: *k,
            });
        } else {
            let (rb, tb) = self.lower_expr(b);
            let rty2 = if tb.is_ptr() && !ta.is_ptr() { tb } else { rty };
            self.emit(Insn::Alu {
                op: alu,
                dst,
                a: ra,
                b: rb,
            });
            return (dst, rty2);
        }
        (dst, rty)
    }

    /// Materialise a 0/1 flag for a comparison (used in value contexts and
    /// by if-conversion).
    fn lower_cmp_flag(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Reg {
        let cmp = binop_to_cmp(op);
        let (ra, ta) = self.lower_expr(a);
        let dst = self.b.fresh_reg();
        if ta == Type::Float {
            let (rb, _) = self.lower_expr(b);
            self.emit(Insn::FCmp {
                op: cmp,
                dst,
                a: ra,
                b: rb,
            });
        } else if let Expr::Int(k) = b {
            self.emit(Insn::CmpImm {
                op: cmp,
                dst,
                a: ra,
                imm: *k,
            });
        } else if matches!(b, Expr::Null) {
            self.emit(Insn::CmpImm {
                op: cmp,
                dst,
                a: ra,
                imm: 0,
            });
        } else {
            let (rb, _) = self.lower_expr(b);
            self.emit(Insn::Cmp {
                op: cmp,
                dst,
                a: ra,
                b: rb,
            });
        }
        dst
    }

    /// Short-circuit logical in *value* position: lower through control flow
    /// into a 0/1 register.
    fn lower_logical_value(&mut self, op: BinOp, a: &Expr, b: &Expr) -> (Reg, Type) {
        let dst = self.b.fresh_reg();
        let t_blk = self.b.new_block();
        let f_blk = self.b.new_block();
        let join = self.b.new_block();
        let e = Expr::Bin(op, Box::new(a.clone()), Box::new(b.clone()));
        self.lower_cond(&e, t_blk, f_blk);
        self.cur = Some(t_blk);
        self.emit(Insn::LoadImm { dst, imm: 1 });
        self.seal_jump(join);
        self.cur = Some(f_blk);
        self.emit(Insn::LoadImm { dst, imm: 0 });
        self.seal_jump(join);
        self.cur = Some(join);
        (dst, Type::Int)
    }

    fn lower_call(&mut self, name: &str, args: &[Expr]) -> (Option<Reg>, Option<Type>) {
        let arg_regs: Vec<Reg> = args.iter().map(|a| self.lower_expr(a).0).collect();
        let callee = self.func_ids[name];
        let ret_ty = self.sigs.get(name).expect("checked call").1;
        let dst = ret_ty.map(|_| self.b.fresh_reg());
        let next = self.b.new_block();
        let c = self.cur();
        self.b.set_call(c, callee, arg_regs, dst, next);
        self.cur = Some(next);
        (dst, ret_ty)
    }

    // ----- conditions ----------------------------------------------------

    /// Lower `e` as a branch: control reaches `t` when `e` is true and `f`
    /// otherwise. The emitted conditional branch's *taken* arm is always the
    /// condition-true target, so callers choose branch polarity by how they
    /// order `t`/`f` (e.g. an `if` branches *to the else arm* on false, the
    /// way real code generators lay out code).
    fn lower_cond(&mut self, e: &Expr, t: BlockId, f: BlockId) {
        match e {
            Expr::Un(UnOp::Not, inner) => self.lower_cond(inner, f, t),
            Expr::Bin(BinOp::And, a, b) => {
                let mid = self.b.new_block();
                self.lower_cond(a, mid, f);
                self.cur = Some(mid);
                self.lower_cond(b, t, f);
            }
            Expr::Bin(BinOp::Or, a, b) => {
                let mid = self.b.new_block();
                self.lower_cond(a, t, mid);
                self.cur = Some(mid);
                self.lower_cond(b, t, f);
            }
            Expr::Bin(op, a, b) if op.is_cmp() => self.lower_cond_cmp(*op, a, b, t, f),
            Expr::Int(v) => {
                // Constant condition: unconditional transfer.
                let target = if *v != 0 { t } else { f };
                self.seal_jump(target);
            }
            _ => {
                // Arbitrary integer expression: branch on non-zero.
                let (r, _) = self.lower_expr(e);
                self.branch_nonzero(r, t, f);
            }
        }
    }

    /// `bne r, 0` in the ISA's idiom.
    fn branch_nonzero(&mut self, r: Reg, t: BlockId, f: BlockId) {
        match self.opts.isa {
            Isa::Alpha => self.seal_branch(BranchOp::Bne, r, None, t, f),
            Isa::Mips => {
                let zero = self.b.fresh_reg();
                self.emit(Insn::LoadImm { dst: zero, imm: 0 });
                self.seal_branch(BranchOp::Bne, r, Some(zero), t, f);
            }
        }
    }

    fn lower_cond_cmp(&mut self, op: BinOp, a: &Expr, b: &Expr, t: BlockId, f: BlockId) {
        let cmp = binop_to_cmp(op);
        // Peek at the operand types without emitting code.
        let is_float = self.static_type(a) == Type::Float;

        if is_float {
            // Direct FB* against literal zero (Alpha idiom); otherwise
            // cmp-then-branch through an integer flag.
            if self.opts.isa == Isa::Alpha {
                if matches!(b, Expr::Float(x) if *x == 0.0) {
                    let (ra, _) = self.lower_expr(a);
                    return self.seal_branch(float_branch(cmp), ra, None, t, f);
                }
                if matches!(a, Expr::Float(x) if *x == 0.0) {
                    let (rb, _) = self.lower_expr(b);
                    return self.seal_branch(float_branch(cmp.swap()), rb, None, t, f);
                }
            }
            let flag = self.lower_cmp_flag(op, a, b);
            return self.branch_nonzero(flag, t, f);
        }

        let zero_literal = |e: &Expr| matches!(e, Expr::Int(0) | Expr::Null);
        // Both ISAs branch a single register against zero.
        if zero_literal(b) {
            let (ra, _) = self.lower_expr(a);
            return self.seal_branch(int_branch(cmp), ra, None, t, f);
        }
        if zero_literal(a) {
            let (rb, _) = self.lower_expr(b);
            return self.seal_branch(int_branch(cmp.swap()), rb, None, t, f);
        }
        // MIPS compares two registers directly for (in)equality.
        if self.opts.isa == Isa::Mips && matches!(cmp, CmpOp::Eq | CmpOp::Ne) {
            let (ra, _) = self.lower_expr(a);
            let (rb, _) = self.lower_expr(b);
            let bop = if cmp == CmpOp::Eq {
                BranchOp::Beq
            } else {
                BranchOp::Bne
            };
            return self.seal_branch(bop, ra, Some(rb), t, f);
        }
        // General case: materialise a flag, then branch on it.
        let flag = self.lower_cmp_flag(op, a, b);
        self.branch_nonzero(flag, t, f);
    }

    /// Static type of an expression (no code emitted). Sound because the
    /// checker has already validated the tree.
    fn static_type(&self, e: &Expr) -> Type {
        match e {
            Expr::Int(_) => Type::Int,
            Expr::Float(_) => Type::Float,
            Expr::Null => Type::PtrInt,
            Expr::Var(n) => self
                .env
                .iter()
                .rev()
                .find_map(|s| s.get(n).map(|(_, t)| *t))
                .unwrap_or(Type::Int),
            Expr::Un(UnOp::Abs, _) => Type::Float,
            Expr::Un(UnOp::Not, _) => Type::Int,
            Expr::Un(UnOp::Neg, inner) => self.static_type(inner),
            Expr::Bin(op, _, _) if op.is_cmp() || op.is_logical() => Type::Int,
            Expr::Bin(_, a, b) => {
                let ta = self.static_type(a);
                if ta == Type::Float {
                    Type::Float
                } else if ta.is_ptr() {
                    ta
                } else {
                    let tb = self.static_type(b);
                    if tb.is_ptr() {
                        tb
                    } else {
                        Type::Int
                    }
                }
            }
            Expr::Index(base, _) => self.static_type(base).elem().unwrap_or(Type::Int),
            Expr::Call(n, _) => self.sigs.get(n).and_then(|(_, r)| *r).unwrap_or(Type::Int),
            Expr::Alloc(ty, _) => {
                if *ty == Type::Int {
                    Type::PtrInt
                } else {
                    Type::PtrFloat
                }
            }
            Expr::Cast(ty, _) => *ty,
        }
    }

    // ----- statements ----------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[Stmt]) {
        self.env.push(HashMap::new());
        for s in stmts {
            self.lower_stmt(s);
        }
        self.env.pop();
    }

    fn lower_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Let { name, ty, init } => {
                let init_val = init.as_ref().map(|e| self.lower_expr(e).0);
                let r = self.bind(name, *ty);
                match init_val {
                    Some(src) => self.emit(Insn::Mov { dst: r, src }),
                    None => {
                        // Scalars read as zero, like BSS.
                        if *ty == Type::Float {
                            self.emit(Insn::LoadFImm { dst: r, imm: 0.0 });
                        } else {
                            self.emit(Insn::LoadImm { dst: r, imm: 0 });
                        }
                    }
                }
            }
            Stmt::Assign(LValue::Var(name), rhs) => {
                let (src, _) = self.lower_expr(rhs);
                let (dst, _) = self.lookup(name);
                self.emit(Insn::Mov { dst, src });
            }
            Stmt::Assign(LValue::Index(base, idx), rhs) => {
                let (rb, _) = self.lower_expr(base);
                match idx.as_ref() {
                    Expr::Int(k) => {
                        let (src, _) = self.lower_expr(rhs);
                        self.emit(Insn::Store {
                            src,
                            base: rb,
                            offset: *k,
                        });
                    }
                    _ => {
                        let (ri, _) = self.lower_expr(idx);
                        let addr = self.b.fresh_reg();
                        self.emit(Insn::Alu {
                            op: AluOp::Add,
                            dst: addr,
                            a: rb,
                            b: ri,
                        });
                        let (src, _) = self.lower_expr(rhs);
                        self.emit(Insn::Store {
                            src,
                            base: addr,
                            offset: 0,
                        });
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => self.lower_if(cond, then_blk, else_blk),
            Stmt::While { cond, body } => {
                let head = self.b.new_block();
                let body_blk = self.b.new_block();
                let exit = self.b.new_block();
                self.seal_jump(head);
                self.cur = Some(head);
                self.lower_cond(cond, body_blk, exit);
                self.cur = Some(body_blk);
                self.loop_stack.push((head, exit));
                self.lower_stmts(body);
                self.loop_stack.pop();
                if self.cur.is_some() {
                    self.seal_jump(head);
                }
                self.cur = Some(exit);
            }
            Stmt::DoWhile { body, cond } => {
                let head = self.b.new_block();
                let latch = self.b.new_block();
                let exit = self.b.new_block();
                self.seal_jump(head);
                self.cur = Some(head);
                self.loop_stack.push((latch, exit));
                self.lower_stmts(body);
                self.loop_stack.pop();
                if self.cur.is_some() {
                    self.seal_jump(latch);
                }
                self.cur = Some(latch);
                self.lower_cond(cond, head, exit);
                self.cur = Some(exit);
            }
            Stmt::For {
                var,
                from,
                to,
                step,
                body,
            } => {
                let (ivar, _) = self.lookup(var);
                let (rf, _) = self.lower_expr(from);
                self.emit(Insn::Mov { dst: ivar, src: rf });
                // Bound is evaluated once, before the loop.
                let (bound, _) = self.lower_expr(to);
                let head = self.b.new_block();
                let body_blk = self.b.new_block();
                let latch = self.b.new_block();
                let exit = self.b.new_block();
                self.seal_jump(head);
                self.cur = Some(head);
                // head: continue while i <= bound (or >= when stepping down)
                let cmp = if *step > 0 { CmpOp::Le } else { CmpOp::Ge };
                let flag = self.b.fresh_reg();
                self.emit(Insn::Cmp {
                    op: cmp,
                    dst: flag,
                    a: ivar,
                    b: bound,
                });
                self.branch_nonzero(flag, body_blk, exit);
                self.cur = Some(body_blk);
                self.loop_stack.push((latch, exit));
                self.lower_stmts(body);
                self.loop_stack.pop();
                if self.cur.is_some() {
                    self.seal_jump(latch);
                }
                self.cur = Some(latch);
                self.emit(Insn::AluImm {
                    op: AluOp::Add,
                    dst: ivar,
                    a: ivar,
                    imm: *step,
                });
                self.seal_jump(head);
                self.cur = Some(exit);
            }
            Stmt::Switch {
                selector,
                cases,
                default,
            } => self.lower_switch(selector, cases, default),
            Stmt::Return(e) => {
                let v = e.as_ref().map(|e| self.lower_expr(e).0);
                let c = self.cur();
                self.b.set_return(c, v);
                self.cur = None;
            }
            Stmt::Break => {
                let (_, brk) = *self
                    .loop_stack
                    .last()
                    .expect("checker rejects break outside loops");
                self.seal_jump(brk);
            }
            Stmt::Continue => {
                let (cont, _) = *self
                    .loop_stack
                    .last()
                    .expect("checker rejects continue outside loops");
                self.seal_jump(cont);
            }
            Stmt::ExprStmt(e) => {
                if let Expr::Call(name, args) = e {
                    let _ = self.lower_call(name, args);
                } else {
                    let _ = self.lower_expr(e);
                }
            }
        }
    }

    fn lower_if(&mut self, cond: &Expr, then_blk: &[Stmt], else_blk: &[Stmt]) {
        // If-conversion: `if (c) v = e;` (optionally with an else assigning
        // the same variable) becomes a conditional move when `e` is safe to
        // speculate. Only the Alpha has CMOV.
        if self.opts.cmov && self.opts.isa == Isa::Alpha {
            if let Some(()) = self.try_cmov(cond, then_blk, else_blk) {
                return;
            }
        }
        let t = self.b.new_block();
        let f = self.b.new_block();
        if else_blk.is_empty() {
            self.lower_cond(cond, t, f);
            self.cur = Some(t);
            self.lower_stmts(then_blk);
            if self.cur.is_some() {
                self.seal_jump(f);
            }
            self.cur = Some(f);
        } else {
            let join = self.b.new_block();
            self.lower_cond(cond, t, f);
            self.cur = Some(t);
            self.lower_stmts(then_blk);
            if self.cur.is_some() {
                self.seal_jump(join);
            }
            self.cur = Some(f);
            self.lower_stmts(else_blk);
            if self.cur.is_some() {
                self.seal_jump(join);
            }
            self.cur = Some(join);
        }
    }

    /// Attempt if-conversion; `Some(())` when code was emitted.
    fn try_cmov(&mut self, cond: &Expr, then_blk: &[Stmt], else_blk: &[Stmt]) -> Option<()> {
        let (op, a, b) = match cond {
            Expr::Bin(op, a, b) if op.is_cmp() => (*op, a.as_ref(), b.as_ref()),
            _ => return None,
        };
        let then_assign = single_scalar_assign(then_blk)?;
        match else_blk {
            [] => {
                let (name, e) = then_assign;
                if !is_speculatable(e) {
                    return None;
                }
                let flag = self.lower_cmp_flag(op, a, b);
                let (src, _) = self.lower_expr(e);
                let (dst, _) = self.lookup(name);
                self.emit(Insn::CMov { c: flag, dst, src });
                Some(())
            }
            _ => {
                let (tn, te) = then_assign;
                let (en, ee) = single_scalar_assign(else_blk)?;
                if tn != en || !is_speculatable(te) || !is_speculatable(ee) {
                    return None;
                }
                let flag = self.lower_cmp_flag(op, a, b);
                let (esrc, _) = self.lower_expr(ee);
                let (dst, _) = self.lookup(tn);
                self.emit(Insn::Mov { dst, src: esrc });
                let (tsrc, _) = self.lower_expr(te);
                self.emit(Insn::CMov {
                    c: flag,
                    dst,
                    src: tsrc,
                });
                Some(())
            }
        }
    }

    fn lower_switch(&mut self, selector: &Expr, cases: &[(i64, Vec<Stmt>)], default: &[Stmt]) {
        let (sel, _) = self.lower_expr(selector);
        let join = self.b.new_block();
        let default_blk = self.b.new_block();

        let mut labels: Vec<i64> = cases.iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        let dense = cases.len() >= 3 && !labels.is_empty() && {
            let span = labels[labels.len() - 1] - labels[0] + 1;
            span <= 3 * cases.len() as i64 && span <= 512
        };

        let case_blocks: Vec<BlockId> = cases.iter().map(|_| self.b.new_block()).collect();

        if dense {
            let min = labels[0];
            let idx = if min != 0 {
                let norm = self.b.fresh_reg();
                self.emit(Insn::AluImm {
                    op: AluOp::Sub,
                    dst: norm,
                    a: sel,
                    imm: min,
                });
                norm
            } else {
                sel
            };
            let span = (labels[labels.len() - 1] - min + 1) as usize;
            let mut targets = vec![default_blk; span];
            for ((label, _), blk) in cases.iter().zip(&case_blocks) {
                targets[(label - min) as usize] = *blk;
            }
            let c = self.cur();
            self.b.set_switch(c, idx, targets, default_blk);
            self.cur = None;
        } else {
            // Sparse: chain of equality tests.
            for ((label, _), blk) in cases.iter().zip(&case_blocks) {
                let next_test = self.b.new_block();
                let flag = self.b.fresh_reg();
                self.emit(Insn::CmpImm {
                    op: CmpOp::Eq,
                    dst: flag,
                    a: sel,
                    imm: *label,
                });
                self.branch_nonzero(flag, *blk, next_test);
                self.cur = Some(next_test);
            }
            self.seal_jump(default_blk);
        }

        for ((_, body), blk) in cases.iter().zip(&case_blocks) {
            self.cur = Some(*blk);
            self.lower_stmts(body);
            if self.cur.is_some() {
                self.seal_jump(join);
            }
        }
        self.cur = Some(default_blk);
        self.lower_stmts(default);
        if self.cur.is_some() {
            self.seal_jump(join);
        }
        self.cur = Some(join);
    }
}

/// `Some((var, expr))` when the block is exactly one scalar assignment.
fn single_scalar_assign(blk: &[Stmt]) -> Option<(&str, &Expr)> {
    match blk {
        [Stmt::Assign(LValue::Var(name), e)] => Some((name, e)),
        _ => None,
    }
}

/// Whether an expression may be evaluated unconditionally: no loads, calls,
/// allocations or short-circuit operators. Division is fine — the IR's
/// division is total.
fn is_speculatable(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Null | Expr::Var(_) => true,
        Expr::Un(_, inner) => is_speculatable(inner),
        Expr::Bin(op, a, b) => !op.is_logical() && is_speculatable(a) && is_speculatable(b),
        Expr::Cast(_, inner) => is_speculatable(inner),
        Expr::Index(..) | Expr::Call(..) | Expr::Alloc(..) => false,
    }
}

fn binop_to_cmp(op: BinOp) -> CmpOp {
    match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => unreachable!("not a comparison"),
    }
}

fn int_branch(op: CmpOp) -> BranchOp {
    match op {
        CmpOp::Eq => BranchOp::Beq,
        CmpOp::Ne => BranchOp::Bne,
        CmpOp::Lt => BranchOp::Blt,
        CmpOp::Le => BranchOp::Ble,
        CmpOp::Gt => BranchOp::Bgt,
        CmpOp::Ge => BranchOp::Bge,
    }
}

fn float_branch(op: CmpOp) -> BranchOp {
    match op {
        CmpOp::Eq => BranchOp::Fbeq,
        CmpOp::Ne => BranchOp::Fbne,
        CmpOp::Lt => BranchOp::Fblt,
        CmpOp::Le => BranchOp::Fble,
        CmpOp::Gt => BranchOp::Fbgt,
        CmpOp::Ge => BranchOp::Fbge,
    }
}

/// Lower one function.
pub(crate) fn lower_func(
    f: &FuncDecl,
    func_ids: &HashMap<String, FuncId>,
    sigs: &Signatures,
    opts: LowerOptions,
) -> Function {
    let mut lower = Lower {
        b: FunctionBuilder::new(&f.name, f.params.len() as u32, f.lang),
        cur: Some(BlockId(0)),
        env: vec![HashMap::new()],
        func_ids,
        sigs,
        opts,
        loop_stack: Vec::new(),
        ret_ty: f.ret,
    };
    for (i, (name, ty)) in f.params.iter().enumerate() {
        lower
            .env
            .last_mut()
            .expect("env never empty")
            .insert(name.clone(), (Reg(i as u32), *ty));
    }
    lower.lower_stmts(&f.body);
    // Implicit return when control falls off the end.
    if lower.cur.is_some() {
        let v = match lower.ret_ty {
            None => None,
            Some(Type::Float) => {
                let r = lower.b.fresh_reg();
                lower.emit(Insn::LoadFImm { dst: r, imm: 0.0 });
                Some(r)
            }
            Some(_) => {
                let r = lower.b.fresh_reg();
                lower.emit(Insn::LoadImm { dst: r, imm: 0 });
                Some(r)
            }
        };
        let c = lower.cur();
        lower.b.set_return(c, v);
    }
    lower.b.finish()
}

/// Lower a checked module into a raw (pre-layout) list of functions.
pub(crate) fn lower_module(module: &Module, opts: LowerOptions) -> Vec<Function> {
    let sigs = Signatures::of(module);
    let func_ids: HashMap<String, FuncId> = module
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
        .collect();
    module
        .funcs
        .iter()
        .map(|f| lower_func(f, &func_ids, &sigs, opts))
        .collect()
}
