//! The three Scheme programs of the paper's §3.1.2 aside (`boyer`,
//! `corewar`, `sccomp`), generated for the Scheme-to-C pipeline.
//!
//! The paper's point: heuristics bred on C idioms invert on Scheme, where
//! recursion is the iteration mechanism and *sparse cons structures make
//! null checks succeed routinely* — the Pointer heuristic ("pointers are
//! rarely null") missed 89% and the Return heuristic 56% on these programs.
//! The generators below produce recursion- and cons-heavy programs whose
//! null checks are frequently true (sparse trees; early-terminating
//! searches), staging the same inversion.

use std::fmt::Write as _;

use esp_runtime::Pcg32;

use crate::gen_cee::name_seed;

/// A Scheme benchmark: name + source text.
#[derive(Debug, Clone)]
pub struct SchemeBenchmark {
    /// The paper's program name (`boyer`, `corewar`, `sccomp`).
    pub name: &'static str,
    /// Generated Scheme source.
    pub source: String,
}

impl SchemeBenchmark {
    /// Compile through the Scheme-to-C pipeline under `cfg`.
    ///
    /// # Errors
    ///
    /// Any error is a generator bug; the test suite compiles all three.
    pub fn compile(
        &self,
        cfg: &esp_lang::CompilerConfig,
    ) -> Result<esp_ir::Program, esp_lang::CompileError> {
        let module = esp_lang::scheme::parse(self.name, &self.source)?;
        esp_lang::compile_module(module, cfg)
    }
}

/// The three programs of §3.1.2.
pub fn scheme_suite() -> Vec<SchemeBenchmark> {
    vec![
        SchemeBenchmark {
            name: "boyer",
            source: gen_boyer(),
        },
        SchemeBenchmark {
            name: "corewar",
            source: gen_corewar(),
        },
        SchemeBenchmark {
            name: "sccomp",
            source: gen_sccomp(),
        },
    ]
}

/// Shared helpers: an in-language LCG and a *sparse* tree builder whose
/// children are `nil` with high probability — the source of
/// frequently-true null checks.
fn prelude(sparsity: i64) -> String {
    format!(
        r#"
(define (lcg x) (modulo (+ (* x 1103515245) 12345) 2147483647))

; sparse binary tree: a node is (cons value (cons left right)); children are
; nil roughly {sparsity} times out of 8
(define (build-tree depth seed)
  (if (<= depth 0)
      'nil
      (let ((r (lcg seed)))
        (if (< (modulo r 8) {sparsity})
            'nil
            (cons (modulo r 1000)
                  (cons (build-tree (- depth 1) r)
                        (build-tree (- depth 1) (+ r 7))))))))

(define (tree-sum t)
  (if (null? t)
      0
      (+ (car t) (+ (tree-sum (car (cdr t))) (tree-sum (cdr (cdr t)))))))

(define (tree-count t)
  (if (null? t) 1 (+ 1 (+ (tree-count (car (cdr t))) (tree-count (cdr (cdr t)))))))

(define (build-list n seed)
  (if (<= n 0) 'nil
      (let ((r (lcg seed)))
        (cons (modulo r 100) (build-list (- n 1) r)))))

(define (sum-list l) (if (null? l) 0 (+ (car l) (sum-list (cdr l)))))
"#
    )
}

/// `boyer`: term-rewriting flavour — repeated sparse-tree construction,
/// traversal and conditional rewriting.
fn gen_boyer() -> String {
    let mut rng = Pcg32::seed_from_u64(name_seed("boyer"));
    let depth = rng.gen_range(11..13);
    let rounds = rng.gen_range(160..220);
    let mut s = prelude(4);
    let _ = write!(
        s,
        r#"
; rewrite: bump small node values, recursing over the sparse structure
(define (rewrite t limit)
  (if (null? t)
      0
      (if (< (car t) limit)
          (+ 1 (+ (rewrite (car (cdr t)) limit) (rewrite (cdr (cdr t)) limit)))
          (+ (rewrite (car (cdr t)) limit) (rewrite (cdr (cdr t)) limit)))))

(define (round seed)
  (let ((t (build-tree {depth} seed)))
    (+ (tree-sum t) (+ (rewrite t 500) (tree-count t)))))

(define (iterate n seed acc)
  (if (<= n 0)
      acc
      (iterate (- n 1) (lcg seed) (modulo (+ acc (round seed)) 1000003))))

(define (main) (iterate {rounds} 20349 0))
"#
    );
    s
}

/// `corewar`: a little battle simulator — process lists, early-exit
/// searches, dispatch on instruction tags.
fn gen_corewar() -> String {
    let mut rng = Pcg32::seed_from_u64(name_seed("corewar"));
    let procs = rng.gen_range(25..40);
    let steps = rng.gen_range(700..1000);
    let mut s = prelude(4);
    let _ = write!(
        s,
        r#"
; find a process with low health; searches usually succeed early
(define (find-weak l threshold)
  (if (null? l)
      -1
      (if (< (car l) threshold)
          (car l)
          (find-weak (cdr l) threshold))))

; one simulation step: dispatch on an opcode derived from the seed
(define (step procs seed)
  (let ((op (modulo seed 5)))
    (if (= op 0) (sum-list procs)
        (if (= op 1) (find-weak procs 20)
            (if (= op 2) (find-weak procs 60)
                (if (= op 3) (tree-sum (build-tree 8 seed))
                    (sum-list (build-list 10 seed))))))))

(define (battle n procs seed acc)
  (if (<= n 0)
      acc
      (battle (- n 1) procs (lcg seed) (modulo (+ acc (step procs seed)) 999983))))

(define (main)
  (let ((procs (build-list {procs} 777)))
    (battle {steps} procs 424243 0)))
"#
    );
    s
}

/// `sccomp`: compiler flavour — recursive expression-tree walks with
/// environment (association-list) lookups.
fn gen_sccomp() -> String {
    let mut rng = Pcg32::seed_from_u64(name_seed("sccomp"));
    let depth = rng.gen_range(10..12);
    let rounds = rng.gen_range(200..280);
    let mut s = prelude(4);
    let _ = write!(
        s,
        r#"
; assoc on an environment of (key . value) cells; misses are common
(define (lookup env key)
  (if (null? env)
      0
      (if (= (car (car env)) key)
          (cdr (car env))
          (lookup (cdr env) key))))

(define (extend env key val) (cons (cons key val) env))

; "compile" an expression tree: constant-fold small values, count the rest
(define (compile-tree t env)
  (if (null? t)
      0
      (let ((v (car t)))
        (if (< v 100)
            (+ (lookup env (modulo v 13))
               (+ (compile-tree (car (cdr t)) env) (compile-tree (cdr (cdr t)) env)))
            (+ 1
               (+ (compile-tree (car (cdr t)) env) (compile-tree (cdr (cdr t)) env)))))))

(define (make-env n seed)
  (if (<= n 0) 'nil (extend (make-env (- n 1) (lcg seed)) (modulo seed 13) (modulo seed 97))))

(define (iterate n seed env acc)
  (if (<= n 0)
      acc
      (iterate (- n 1) (lcg seed) env
               (modulo (+ acc (compile-tree (build-tree {depth} seed) env)) 1000003))))

(define (main) (iterate {rounds} 555557 (make-env 9 31337) 0))
"#
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_lang::CompilerConfig;

    #[test]
    fn all_three_compile_and_run() {
        for bench in scheme_suite() {
            let prog = bench
                .compile(&CompilerConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            esp_ir::validate_program(&prog).expect("valid IR");
            let out = esp_exec::run(&prog, &esp_exec::ExecLimits::default())
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert!(
                out.profile.dyn_cond_branches > 5_000,
                "{}: only {} conditional branches",
                bench.name,
                out.profile.dyn_cond_branches
            );
        }
    }

    #[test]
    fn scheme_programs_are_recursion_heavy() {
        // no loops at all: every function in the IR must be Leaf/NonLeaf/
        // CallSelf with CallSelf present
        let prog = scheme_suite()[0]
            .compile(&CompilerConfig::default())
            .expect("compiles");
        let recursive = prog
            .iter_funcs()
            .filter(|(id, _)| prog.proc_kind(*id) == esp_ir::ProcKind::CallSelf)
            .count();
        assert!(recursive >= 3, "expected several self-recursive functions");
    }

    #[test]
    fn null_checks_succeed_often() {
        // the §3.1.2 inversion: a substantial fraction of executed pointer
        // null-checks are TRUE (sparse trees), unlike C corpora
        let bench = &scheme_suite()[0];
        let prog = bench.compile(&CompilerConfig::default()).expect("compiles");
        let analysis = esp_ir::ProgramAnalysis::analyze(&prog);
        let out = esp_exec::run(&prog, &esp_exec::ExecLimits::default()).expect("runs");
        let mut null_true = 0u64;
        let mut null_total = 0u64;
        for site in prog.branch_sites() {
            let Some(c) = out.profile.counts(site) else {
                continue;
            };
            let block = prog.func(site.func).block(site.block);
            let Some(ec) = esp_ir::effective_compare(block) else {
                continue;
            };
            let fa = analysis.func(site.func);
            let is_null_check = !ec.is_float
                && fa.pointers.is_pointer(ec.lhs)
                && matches!(ec.rhs, esp_ir::CompareRhs::Imm(0))
                && matches!(ec.op, esp_ir::CmpOp::Eq | esp_ir::CmpOp::Ne);
            if is_null_check {
                null_total += c.executed;
                // count executions where "is null" was the outcome
                let taken_means_null = ec.op == esp_ir::CmpOp::Eq;
                null_true += if taken_means_null {
                    c.taken
                } else {
                    c.executed - c.taken
                };
            }
        }
        assert!(null_total > 1000, "no null checks measured");
        let frac = null_true as f64 / null_total as f64;
        assert!(
            frac > 0.30,
            "null checks true only {:.1}% of the time — not Scheme-like",
            frac * 100.0
        );
    }
}
