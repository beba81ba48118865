//! Deterministic Fort source generation from idiom templates (the Fortran
//! counterpart of [`crate::gen_cee`]; no pointers, matching the paper's
//! observation that pointers are very rare in FORTRAN).

use std::fmt::Write as _;

use esp_runtime::Pcg32;

use crate::gen_cee::name_seed;
use crate::personality::Personality;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Idiom {
    DoKernel,
    MarkKernel,
    Convergence,
    CheckedUpdate,
    CondMax,
    ModStride,
    RareFixup,
    HotFixup,
    Triangular,
    NoiseParity,
    GuardedDiv,
}

struct Gen<'p> {
    rng: Pcg32,
    out: String,
    p: &'p Personality,
    n: u32,
    entries: Vec<(String, String)>,
    have_fixup: bool,
}

impl Gen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.n += 1;
        format!("{prefix}{}", self.n)
    }

    fn lcg(var: &str) -> String {
        format!("{var} = MOD({var} * 1103515245 + 12345, 2147483647)")
    }

    /// Shared rare-path subroutine (gives the Call/Store heuristics cold
    /// paths to see).
    fn ensure_fixup(&mut self) -> String {
        if !self.have_fixup {
            self.have_fixup = true;
            self.out.push_str(
                "SUBROUTINE FIXUP(A, K)\n  INTEGER A(*)\n  INTEGER K\n  A(1) = K\n  A(2) = MOD(K, 13)\n  RETURN\nEND\n\n",
            );
        }
        "fixup".to_string()
    }

    fn emit(&mut self, idiom: Idiom) {
        let name = match idiom {
            Idiom::DoKernel => self.do_kernel(),
            Idiom::MarkKernel => self.mark_kernel(),
            Idiom::Convergence => self.convergence(),
            Idiom::CheckedUpdate => self.checked_update(),
            Idiom::CondMax => self.cond_max(),
            Idiom::ModStride => self.mod_stride(),
            Idiom::RareFixup => self.rare_fixup(),
            Idiom::HotFixup => self.hot_fixup(),
            Idiom::Triangular => self.triangular(),
            Idiom::NoiseParity => self.noise_parity(),
            Idiom::GuardedDiv => self.guarded_div(),
        };
        let arg = format!("MOD(R, {})", self.rng.gen_range(1000..100000));
        self.entries.push((name, arg));
    }

    fn do_kernel(&mut self) -> String {
        let f = self.fresh("dker");
        let sz = self.p.loop_trip + self.rng.gen_range(0..self.p.loop_trip.max(2));
        // Direction and bias are randomized (see gen_cee::sum_loop): the
        // compare opcode carries learnable evidence no fixed heuristic uses.
        // see gen_cee::sum_loop: spread thresholds create site-specific
        // majorities under identical features.
        let thr = if self.rng.gen_bool(0.5) {
            self.rng.gen_range(60..260)
        } else {
            self.rng.gen_range(740..940)
        };
        let op = if self.rng.gen_bool(0.5) {
            ".GT."
        } else {
            ".LT."
        };
        let passes = self.rng.gen_range(3..6);
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, Q, S
  INTEGER A({sz})
  X = SEED + 17
  S = 0
  DO I = 1, {sz}
    {lcg}
    A(I) = MOD(X, 1000)
  ENDDO
  DO Q = 1, {passes}
    DO I = 1, {sz}
      IF (A(I) {op} {thr}) THEN
        S = S + A(I)
      ELSE
        S = S + 1
      ENDIF
    ENDDO
  ENDDO
  {F} = S
  RETURN
END

"#,
            F = f
        )
        .expect("write to string");
        f
    }

    fn convergence(&mut self) -> String {
        let f = self.fresh("conv");
        let sz = self.p.loop_trip + self.rng.gen_range(4..30);
        let maxit = self.rng.gen_range(8..25);
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, I, ITER
  REAL A({sz})
  REAL ERR, D
  DO I = 1, {sz}
    A(I) = REAL(MOD(SEED + I * 37, 1000))
  ENDDO
  ERR = 1000.0
  ITER = 0
  DO WHILE (ERR .GT. 1.0 .AND. ITER .LT. {maxit})
    ERR = 0.0
    DO I = 2, {sz}
      D = (A(I) - A(I - 1)) * 0.5
      IF (ABS(D) .GT. ERR) THEN
        ERR = ABS(D)
      ENDIF
      A(I) = A(I) - D * 0.6
    ENDDO
    ITER = ITER + 1
  ENDDO
  {F} = ITER
  RETURN
END

"#,
            F = f
        )
        .expect("write to string");
        f
    }

    /// The tomcatv texture (see `gen_cee::checked_update`): an
    /// almost-always-true forward guard whose hot arm stores.
    fn checked_update(&mut self) -> String {
        let f = self.fresh("cupd");
        let sz = self.p.loop_trip + self.rng.gen_range(4..30);
        let passes = self.rng.gen_range(5..9);
        // see gen_cee::checked_update: hot (ABS .GT.) vs rare (.LT.)
        let hot = self.rng.gen_bool(0.7);
        let guard = if hot {
            "ABS(V(I)) .GT. 0.5"
        } else {
            "V(I) .LT. 0.5"
        };
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, I, P, SKIPPED
  REAL V({sz})
  DO I = 1, {sz}
    V(I) = REAL(MOD(SEED + I * 53, 1000) + 1)
  ENDDO
  SKIPPED = 0
  DO P = 1, {passes}
    DO I = 1, {sz}
      IF ({guard}) THEN
        V(I) = V(I) * 0.25
      ELSE
        SKIPPED = SKIPPED + 1
      ENDIF
    ENDDO
  ENDDO
  {F} = SKIPPED
  RETURN
END

"#,
            F = f
        )
        .expect("write to string");
        f
    }

    fn cond_max(&mut self) -> String {
        let f = self.fresh("cmax");
        let sz = self.p.loop_trip + self.rng.gen_range(2..20);
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, BEST
  REAL V({sz})
  X = SEED + 5
  DO I = 1, {sz}
    {lcg}
    V(I) = REAL(MOD(X, 10000)) * 0.125
  ENDDO
  BEST = 1
  DO I = 2, {sz}
    IF (V(I) .GT. V(BEST)) THEN
      BEST = I
    ENDIF
  ENDDO
  {F} = BEST
  RETURN
END

"#,
            F = f
        )
        .expect("write to string");
        f
    }

    fn mod_stride(&mut self) -> String {
        let f = self.fresh("strd");
        let sz = self.p.loop_trip * 2 + self.rng.gen_range(4..20);
        let m = self.rng.gen_range(3..9);
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, S
  X = SEED + 11
  S = 0
  DO I = 1, {sz}
    {lcg}
    IF (MOD(I, {m}) .EQ. 0) THEN
      S = S + MOD(X, 50)
    ENDIF
    IF (MOD(X, 2) .EQ. 0) THEN
      S = S + 1
    ENDIF
  ENDDO
  {F} = S
  RETURN
END

"#,
            F = f
        )
        .expect("write to string");
        f
    }

    fn rare_fixup(&mut self) -> String {
        let fixup = self.ensure_fixup();
        let f = self.fresh("rare");
        let n = self.p.loop_trip * 2 + self.rng.gen_range(0..20);
        let rarity = self.p.error_rarity.max(2);
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, S
  INTEGER BUF(4)
  X = SEED + 23
  S = 0
  DO I = 1, {n}
    {lcg}
    IF (MOD(X, {rarity}) .EQ. 0) THEN
      CALL {FX}(BUF, MOD(X, 100))
      S = S + BUF(1)
    ELSE
      S = S + MOD(X, 7)
    ENDIF
  ENDDO
  {F} = S
  RETURN
END

"#,
            F = f,
            FX = fixup
        )
        .expect("write to string");
        f
    }

    /// Guarded array store on the *hot* path — anti-aligned with the Store
    /// heuristic, like `gen_cee::mark_loop`.
    fn mark_kernel(&mut self) -> String {
        let f = self.fresh("mker");
        let sz = self.p.loop_trip + self.rng.gen_range(4..20);
        let m = self.rng.gen_range(5..10);
        let op = if self.rng.gen_bool(0.55) {
            ".NE."
        } else {
            ".EQ."
        };
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, S
  INTEGER B({sz})
  X = SEED + 31
  B(1) = 0
  DO I = 1, {sz}
    {lcg}
    IF (MOD(X, {m}) {op} 0) THEN
      B(I) = MOD(X, 100)
    ENDIF
  ENDDO
  S = 0
  DO I = 1, {sz}
    S = S + MOD(B(I), 7)
  ENDDO
  {F} = S
  RETURN
END

"#,
            F = f
        )
        .expect("write to string");
        f
    }

    /// Subroutine calls on the common path (aligned with the Call
    /// heuristic), balancing `rare_fixup`.
    fn hot_fixup(&mut self) -> String {
        let fixup = self.ensure_fixup();
        let f = self.fresh("hfix");
        let n = self.p.loop_trip + self.rng.gen_range(5..25);
        let m = self.rng.gen_range(3..6);
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, S
  INTEGER BUF(4)
  X = SEED + 53
  S = 0
  DO I = 1, {n}
    {lcg}
    IF (MOD(X, {m}) .NE. 0) THEN
      CALL {FX}(BUF, MOD(X, 50))
      S = S + BUF(2)
    ELSE
      S = S - 1
    ENDIF
  ENDDO
  {F} = S
  RETURN
END

"#,
            F = f,
            FX = fixup
        )
        .expect("write to string");
        f
    }

    fn triangular(&mut self) -> String {
        let f = self.fresh("tri");
        let sz = (self.p.loop_trip / 2 + self.rng.gen_range(6..16)).max(8);
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, J, S
  INTEGER M({sq})
  X = SEED + 29
  DO I = 1, {sq}
    {lcg}
    M(I) = MOD(X, 100)
  ENDDO
  S = 0
  DO I = 1, {sz}
    DO J = I, {sz}
      S = S + M((I - 1) * {sz} + J)
      IF (S .GT. 1000000) THEN
        S = S - 999983
      ENDIF
    ENDDO
  ENDDO
  {F} = S
  RETURN
END

"#,
            F = f,
            sq = sz * sz
        )
        .expect("write to string");
        f
    }

    fn noise_parity(&mut self) -> String {
        let f = self.fresh("nois");
        let n = self.p.loop_trip * 2 + self.rng.gen_range(0..25);
        let shift = 1i64 << self.rng.gen_range(5..12);
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, S
  X = SEED + 41
  S = 0
  DO I = 1, {n}
    {lcg}
    IF (MOD(X / {shift}, 2) .EQ. 0) THEN
      S = S + 1
    ELSE
      S = S - 1
    ENDIF
  ENDDO
  {F} = S
  RETURN
END

"#,
            F = f
        )
        .expect("write to string");
        f
    }

    fn guarded_div(&mut self) -> String {
        let f = self.fresh("gdiv");
        let n = self.p.loop_trip + self.rng.gen_range(0..10);
        let m = self.rng.gen_range(10..40);
        let lcg = Self::lcg("X");
        write!(
            self.out,
            r#"INTEGER FUNCTION {f}(SEED)
  INTEGER SEED, X, I, S, D
  X = SEED + 11
  S = 1
  DO I = 1, {n}
    {lcg}
    D = MOD(X, {m})
    IF (D .NE. 0) THEN
      S = S + MOD(X, 10000) / D
    ENDIF
    IF (S .LT. 0) THEN
      S = 0
    ENDIF
  ENDDO
  {F} = S
  RETURN
END

"#,
            F = f
        )
        .expect("write to string");
        f
    }
}

/// Generate the Fort source of a whole benchmark.
pub(crate) fn generate(name: &str, p: &Personality) -> String {
    let mut g = Gen {
        rng: Pcg32::seed_from_u64(name_seed(name) ^ 0xF0F0F0F0F0F0F0F0),
        out: format!("! benchmark `{name}` (generated)\n\n"),
        p,
        n: 0,
        entries: Vec::new(),
        have_fixup: false,
    };

    let deck: Vec<(u32, Idiom)> = vec![
        (3, Idiom::DoKernel),
        (2, Idiom::MarkKernel),
        (p.float_weight, Idiom::Convergence),
        (p.float_weight + 1, Idiom::CheckedUpdate),
        (p.float_weight, Idiom::CondMax),
        (2, Idiom::ModStride),
        (p.call_weight, Idiom::RareFixup),
        (p.call_weight, Idiom::HotFixup),
        (1, Idiom::Triangular),
        (p.noise_weight, Idiom::NoiseParity),
        (2, Idiom::GuardedDiv),
    ];
    let total: u32 = deck.iter().map(|(w, _)| *w).sum();
    for _ in 0..p.funcs {
        let mut pick = g.rng.gen_range(0..total.max(1));
        let mut chosen = Idiom::DoKernel;
        for (w, idiom) in &deck {
            if pick < *w {
                chosen = *idiom;
                break;
            }
            pick -= w;
        }
        g.emit(chosen);
    }

    let mut main = String::from("PROGRAM MAIN\n  INTEGER ACC, R, IT\n  ACC = 0\n  R = 987654321\n");
    let _ = writeln!(main, "  DO IT = 1, {}", p.main_iters);
    let _ = writeln!(main, "    {}", Gen::lcg("R"));
    for (f, arg) in &g.entries {
        let _ = writeln!(main, "    ACC = ACC + {}({})", f.to_uppercase(), arg);
    }
    main.push_str("  ENDDO\nEND\n");
    g.out.push_str(&main);
    g.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_source_parses() {
        let p = Personality {
            ptr_weight: 0,
            ..Personality::default()
        };
        let src = generate("fort-unit", &p);
        let module = esp_lang::fort::parse("fort-unit", &src)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}\n{src}"));
        assert!(module.funcs.iter().any(|f| f.name == "main"));
    }

    #[test]
    fn all_idioms_produce_valid_functions() {
        let p = Personality {
            ptr_weight: 0,
            ..Personality::default()
        };
        let mut g = Gen {
            rng: Pcg32::seed_from_u64(name_seed("fort-coverage")),
            out: String::new(),
            p: &p,
            n: 0,
            entries: Vec::new(),
            have_fixup: false,
        };
        for idiom in [
            Idiom::DoKernel,
            Idiom::MarkKernel,
            Idiom::Convergence,
            Idiom::CheckedUpdate,
            Idiom::CondMax,
            Idiom::ModStride,
            Idiom::RareFixup,
            Idiom::HotFixup,
            Idiom::Triangular,
            Idiom::NoiseParity,
            Idiom::GuardedDiv,
        ] {
            g.emit(idiom);
        }
        for marker in [
            "dker", "mker", "conv", "cupd", "cmax", "strd", "rare", "hfix", "tri", "nois", "gdiv",
        ] {
            assert!(
                g.out.to_lowercase().contains(marker),
                "idiom {marker} missing:\n{}",
                g.out
            );
        }
        let mut src = g.out.clone();
        src.push_str("PROGRAM MAIN\n  INTEGER X\n  X = 0\nEND\n");
        esp_lang::fort::parse("t", &src).expect("parses");
    }
}
