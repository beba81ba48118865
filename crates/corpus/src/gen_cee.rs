//! Deterministic Cee source generation from idiom templates.
//!
//! Each idiom instantiates a worker function whose branch population carries
//! a characteristic bias (loop latches mostly taken, null checks mostly
//! false, error returns rare, parity checks ~50/50, …). The mix per program
//! is steered by its [`Personality`].

use std::fmt::Write as _;

use esp_runtime::Pcg32;

use crate::personality::Personality;

/// Stable seed from a benchmark name.
pub(crate) fn name_seed(name: &str) -> u64 {
    esp_obs::fnv1a(name.as_bytes())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Idiom {
    SumLoop,
    MarkLoop,
    SentinelSearch,
    ListWalk,
    GuardedDiv,
    ErrorPath,
    HotCall,
    Dispatch,
    Recurse,
    FloatKernel,
    CheckedUpdate,
    NoiseBits,
    BubblePass,
}

struct Gen<'p> {
    rng: Pcg32,
    out: String,
    p: &'p Personality,
    n: u32,
    /// (function name, argument expression in terms of main's `r`)
    entries: Vec<(String, String)>,
    have_report: bool,
}

impl Gen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.n += 1;
        format!("{prefix}_{}", self.n)
    }

    fn lcg(var: &str) -> String {
        format!("{var} = ({var} * 1103515245 + 12345) % 2147483647;")
    }

    /// Shared rare-error sink: gives the Call and Store heuristics something
    /// to see on cold paths.
    fn ensure_report(&mut self) -> String {
        if !self.have_report {
            self.have_report = true;
            self.out.push_str(
                "int report(int code) {\n    int log[4];\n    log[0] = code;\n    log[1] = code % 13;\n    return log[0] + log[1];\n}\n\n",
            );
        }
        "report".to_string()
    }

    fn emit(&mut self, idiom: Idiom) {
        let name = match idiom {
            Idiom::SumLoop => self.sum_loop(),
            Idiom::MarkLoop => self.mark_loop(),
            Idiom::SentinelSearch => self.sentinel_search(),
            Idiom::ListWalk => self.list_walk(),
            Idiom::GuardedDiv => self.guarded_div(),
            Idiom::ErrorPath => self.error_path(),
            Idiom::HotCall => self.hot_call(),
            Idiom::Dispatch => self.dispatch(),
            Idiom::Recurse => self.recurse(),
            Idiom::FloatKernel => self.float_kernel(),
            Idiom::CheckedUpdate => self.checked_update(),
            Idiom::NoiseBits => self.noise_bits(),
            Idiom::BubblePass => self.bubble_pass(),
        };
        let arg = match idiom {
            Idiom::Recurse => format!("r % {} + 3", self.rng.gen_range(8..24)),
            _ => format!("r % {}", self.rng.gen_range(1000..100000)),
        };
        self.entries.push((name, arg));
    }

    fn sum_loop(&mut self) -> String {
        let f = self.fresh("sum");
        let sz = self.p.loop_trip + self.rng.gen_range(0..self.p.loop_trip.max(2));
        // The guard's direction and bias are randomized. Neither arm
        // contains a call/store/return, so no Ball–Larus heuristic covers
        // the branch — but its *compare opcode correlates with its bias*
        // (`>`-guards against a low threshold are mostly true, `<`-guards
        // mostly false), which is exactly the kind of evidence ESP can learn
        // and a fixed heuristic set cannot express.
        // The threshold is spread over most of the value range, so two
        // sites with *identical* features can have opposite majority
        // directions — the irreducible gap between any program-based
        // predictor and the perfect static profile (paper: 20% vs 8%).
        // The distribution is skewed low, so `>`-guards are taken-leaning
        // in aggregate: learnable signal with residual noise.
        let thr = if self.rng.gen_bool(0.5) {
            self.rng.gen_range(60..260)
        } else {
            self.rng.gen_range(740..940)
        };
        let op = if self.rng.gen_bool(0.5) { ">" } else { "<" };
        let passes = self.rng.gen_range(3..6);
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int a[{sz}];
    int i;
    int s = 0;
    int x = seed + 17;
    for (i = 0; i < {sz}; i = i + 1) {{
        {lcg}
        a[i] = x % 1000;
    }}
    int q;
    for (q = 0; q < {passes}; q = q + 1) {{
        for (i = 0; i < {sz}; i = i + 1) {{
            if (a[i] {op} {thr}) {{ s = s + a[i]; }} else {{ s = s + 1; }}
        }}
    }}
    return s;
}}

"#
        )
        .expect("write to string");
        f
    }

    /// A loop whose guarded *hot* arm contains a store: when the guard is
    /// mostly true this contradicts the Store heuristic ("successor with a
    /// store is not taken"), reproducing the anti-heuristic branch mass the
    /// paper's Table 5 shows (heuristics missed ~38% of covered non-loop
    /// branches).
    fn mark_loop(&mut self) -> String {
        let f = self.fresh("mark");
        let sz = self.p.loop_trip + self.rng.gen_range(4..20);
        let m = self.rng.gen_range(5..10);
        // Randomized polarity: `!=` stores on ~(m-1)/m of iterations
        // (anti-aligned with the Store heuristic), `==` on ~1/m (aligned).
        // The mix keeps the heuristic's measured hit rate near the paper's
        // Table 6 values instead of collapsing to one side.
        let op = if self.rng.gen_bool(0.55) { "!=" } else { "==" };
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int b[{sz}];
    int i;
    int x = seed + 31;
    b[0] = 0;
    for (i = 0; i < {sz}; i = i + 1) {{
        {lcg}
        if (x % {m} {op} 0) {{
            b[i] = x % 100;
        }}
    }}
    int s = 0;
    for (i = 0; i < {sz}; i = i + 1) {{
        s = s + b[i] % 7;
    }}
    return s;
}}

"#
        )
        .expect("write to string");
        f
    }

    /// Calls on the *common* path (aligned with the Call heuristic), mixed
    /// with the rare-error calls of `error_path` (anti-aligned): together
    /// they pull the Call heuristic toward the middling hit rates of
    /// Table 6.
    fn hot_call(&mut self) -> String {
        let report = self.ensure_report();
        let f = self.fresh("dispatchq");
        let n = self.p.loop_trip + self.rng.gen_range(5..25);
        let m = self.rng.gen_range(3..6);
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int x = seed + 53;
    int s = 0;
    int i;
    for (i = 0; i < {n}; i = i + 1) {{
        {lcg}
        if (x % {m} != 0) {{
            s = s + {report}(x % 50);
        }} else {{
            s = s - 1;
        }}
    }}
    return s;
}}

"#
        )
        .expect("write to string");
        f
    }

    fn sentinel_search(&mut self) -> String {
        let f = self.fresh("find");
        let sz = self.p.loop_trip + self.rng.gen_range(2..self.p.loop_trip.max(3));
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int a[{sz}];
    int i;
    int x = seed + 5;
    for (i = 0; i < {sz}; i = i + 1) {{
        {lcg}
        a[i] = x % 997 + 1;
    }}
    a[{last}] = 0;
    i = 0;
    while (i < {sz} && a[i] != 0) {{
        i = i + 1;
    }}
    return i;
}}

"#,
            last = sz - 1
        )
        .expect("write to string");
        f
    }

    fn list_walk(&mut self) -> String {
        let f = self.fresh("walk");
        let n = self.p.loop_trip / 2 + self.rng.gen_range(4..20);
        let thr = self.rng.gen_range(20..80);
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int *head = null;
    int i;
    int x = seed + 3;
    for (i = 0; i < {n}; i = i + 1) {{
        int *node = alloc_int(2);
        {lcg}
        node[0] = x % 100;
        node[1] = (int) head;
        head = node;
    }}
    if (head == null) {{ return 0 - 1; }}
    int s = 0;
    int *pp = head;
    while (pp != null) {{
        if (pp[0] > {thr}) {{ s = s + pp[0]; }}
        pp = (int*) pp[1];
    }}
    return s;
}}

"#
        )
        .expect("write to string");
        f
    }

    fn guarded_div(&mut self) -> String {
        let f = self.fresh("gdiv");
        let n = self.p.loop_trip + self.rng.gen_range(0..10);
        let m = self.rng.gen_range(10..40);
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int x = seed + 11;
    int s = 1;
    int i;
    for (i = 0; i < {n}; i = i + 1) {{
        {lcg}
        int d = x % {m};
        if (d != 0) {{ s = s + (x % 10000) / d; }}
        if (s < 0) {{ return 0; }}
    }}
    return s;
}}

"#
        )
        .expect("write to string");
        f
    }

    fn error_path(&mut self) -> String {
        let report = self.ensure_report();
        let f = self.fresh("scan");
        let n = self.p.loop_trip * 2 + self.rng.gen_range(0..20);
        let rarity = self.p.error_rarity.max(2);
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int x = seed + 23;
    int s = 0;
    int i;
    for (i = 0; i < {n}; i = i + 1) {{
        {lcg}
        if (x % {rarity} == 0) {{
            s = s + {report}(x % 100);
        }} else {{
            s = s + x % 7;
        }}
    }}
    return s;
}}

"#
        )
        .expect("write to string");
        f
    }

    fn dispatch(&mut self) -> String {
        let f = self.fresh("exec");
        let n = self.p.loop_trip + self.rng.gen_range(5..30);
        let k = self.rng.gen_range(4..8);
        let lcg = Self::lcg("x");
        let mut cases = String::new();
        for c in 0..k {
            let delta = self.rng.gen_range(1..9);
            writeln!(
                cases,
                "            case {c}: s = s + x % {delta} + {c};",
                delta = delta + 1
            )
            .expect("write to string");
        }
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int x = seed + 7;
    int s = 0;
    int i;
    for (i = 0; i < {n}; i = i + 1) {{
        {lcg}
        switch (x % {k}) {{
{cases}            default: s = s - 1;
        }}
    }}
    return s;
}}

"#
        )
        .expect("write to string");
        f
    }

    fn recurse(&mut self) -> String {
        let f = self.fresh("rec");
        let k = self.rng.gen_range(2..5);
        write!(
            self.out,
            r#"int {f}(int n) {{
    if (n <= 1) {{ return 1; }}
    if (n % {k} == 0) {{ return {f}(n - 1) + 2; }}
    return {f}(n - 1) + n % 3;
}}

"#
        )
        .expect("write to string");
        f
    }

    fn float_kernel(&mut self) -> String {
        let f = self.fresh("relax");
        let sz = self.p.loop_trip + self.rng.gen_range(4..30);
        let maxit = self.rng.gen_range(8..25);
        write!(
            self.out,
            r#"int {f}(int seed) {{
    float a[{sz}];
    int i;
    for (i = 0; i < {sz}; i = i + 1) {{
        a[i] = (float) ((seed + i * 37) % 1000);
    }}
    float err = 1000.0;
    int iter = 0;
    while (err > 1.0 && iter < {maxit}) {{
        err = 0.0;
        for (i = 1; i < {sz}; i = i + 1) {{
            float d = (a[i] - a[i - 1]) * 0.5;
            if (fabs(d) > err) {{ err = fabs(d); }}
            a[i] = a[i] - d * 0.6;
        }}
        iter = iter + 1;
    }}
    return iter;
}}

"#
        )
        .expect("write to string");
        f
    }

    /// The tomcatv texture (paper Fig. 2): a convergence-style sweep whose
    /// guard is *almost always true* and whose hot arm stores — a forward
    /// taken branch that BTFNT always misses and the Guard/Store heuristics
    /// mispredict, while the profile (and a corpus-trained predictor) get it
    /// right.
    fn checked_update(&mut self) -> String {
        let f = self.fresh("cupd");
        let sz = self.p.loop_trip + self.rng.gen_range(4..30);
        let passes = self.rng.gen_range(5..9);
        // ~70% of instances sweep with an almost-always-true `fabs(..) >`
        // guard (the tomcatv texture); the rest underflow-check with a plain
        // `<` compare that is almost never true, so the store arm is rare
        // and the Store heuristic is right for once. The two variants are
        // *feature-distinguishable* (compare direction, FABS in the operand
        // chain) — evidence ESP can learn and a fixed heuristic cannot.
        let hot = self.rng.gen_bool(0.7);
        let guard = if hot {
            "fabs(v[i]) > 0.5"
        } else {
            "v[i] < 0.5"
        };
        write!(
            self.out,
            r#"int {f}(int seed) {{
    float v[{sz}];
    int i;
    int p;
    int skipped = 0;
    for (i = 0; i < {sz}; i = i + 1) {{
        v[i] = (float) ((seed + i * 53) % 1000 + 1);
    }}
    for (p = 0; p < {passes}; p = p + 1) {{
        for (i = 0; i < {sz}; i = i + 1) {{
            if ({guard}) {{
                v[i] = v[i] * 0.25;
            }} else {{
                skipped = skipped + 1;
            }}
        }}
    }}
    return skipped;
}}

"#
        )
        .expect("write to string");
        f
    }

    fn noise_bits(&mut self) -> String {
        let f = self.fresh("bits");
        let n = self.p.loop_trip * 2 + self.rng.gen_range(0..25);
        let shift = self.rng.gen_range(5..12);
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int x = seed + 41;
    int s = 0;
    int i;
    for (i = 0; i < {n}; i = i + 1) {{
        {lcg}
        if ((x / {div}) % 2 == 0) {{ s = s + 1; }} else {{ s = s - 1; }}
        if (x % 4 == 1 || x % 16 == 2) {{ s = s + 3; }}
    }}
    return s;
}}

"#,
            div = 1i64 << shift
        )
        .expect("write to string");
        f
    }

    fn bubble_pass(&mut self) -> String {
        let f = self.fresh("bsort");
        let sz = (self.p.loop_trip / 2 + self.rng.gen_range(6..16)).max(8);
        let lcg = Self::lcg("x");
        write!(
            self.out,
            r#"int {f}(int seed) {{
    int a[{sz}];
    int i;
    int j;
    int x = seed + 29;
    for (i = 0; i < {sz}; i = i + 1) {{
        {lcg}
        a[i] = x % 5000;
    }}
    for (i = 0; i < {passes}; i = i + 1) {{
        for (j = 0; j < {inner}; j = j + 1) {{
            if (a[j] > a[j + 1]) {{
                int t = a[j];
                a[j] = a[j + 1];
                a[j + 1] = t;
            }}
        }}
    }}
    return a[0] + a[{last}];
}}

"#,
            passes = sz - 1,
            inner = sz - 1,
            last = sz - 1
        )
        .expect("write to string");
        f
    }
}

/// Generate the Cee source of a whole benchmark.
pub(crate) fn generate(name: &str, p: &Personality) -> String {
    let mut g = Gen {
        rng: Pcg32::seed_from_u64(name_seed(name)),
        out: format!("// benchmark `{name}` (generated)\n\n"),
        p,
        n: 0,
        entries: Vec::new(),
        have_report: false,
    };

    // Weighted idiom deck.
    let deck: Vec<(u32, Idiom)> = vec![
        (3, Idiom::SumLoop),
        (2, Idiom::MarkLoop),
        (2, Idiom::SentinelSearch),
        (p.ptr_weight, Idiom::ListWalk),
        (2, Idiom::GuardedDiv),
        (p.call_weight, Idiom::ErrorPath),
        (p.call_weight, Idiom::HotCall),
        (p.switch_weight, Idiom::Dispatch),
        (p.rec_weight, Idiom::Recurse),
        (p.float_weight, Idiom::FloatKernel),
        (p.float_weight + 1, Idiom::CheckedUpdate),
        (p.noise_weight, Idiom::NoiseBits),
        (1, Idiom::BubblePass),
    ];
    let total: u32 = deck.iter().map(|(w, _)| *w).sum();
    for _ in 0..p.funcs {
        let mut pick = g.rng.gen_range(0..total.max(1));
        let mut chosen = Idiom::SumLoop;
        for (w, idiom) in &deck {
            if pick < *w {
                chosen = *idiom;
                break;
            }
            pick -= w;
        }
        g.emit(chosen);
    }

    // main: LCG-driven phase schedule.
    let mut main = String::from("int main() {\n    int acc = 0;\n    int r = 987654321;\n    int it;\n");
    let _ = writeln!(main, "    for (it = 0; it < {}; it = it + 1) {{", p.main_iters);
    let _ = writeln!(main, "        {}", Gen::lcg("r"));
    let entries = g.entries.clone();
    for (f, arg) in &entries {
        let _ = writeln!(main, "        acc = acc + {f}({arg});");
    }
    main.push_str("    }\n    return acc % 100000;\n}\n");
    g.out.push_str(&main);
    g.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_seed_is_stable_and_distinct() {
        assert_eq!(name_seed("gcc"), name_seed("gcc"));
        assert_ne!(name_seed("gcc"), name_seed("li"));
    }

    #[test]
    fn generated_source_parses() {
        let p = Personality::default();
        let src = generate("unit-test", &p);
        let module = esp_lang::cee::parse("unit-test", &src)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}\n{src}"));
        assert!(module.funcs.iter().any(|f| f.name == "main"));
        assert!(module.funcs.len() > p.funcs as usize / 2);
    }

    #[test]
    fn all_idioms_produce_valid_functions() {
        // emit every idiom exactly once, then wrap in a main and parse
        let p = Personality::default();
        let mut g = Gen {
            rng: Pcg32::seed_from_u64(name_seed("idiom-coverage")),
            out: String::new(),
            p: &p,
            n: 0,
            entries: Vec::new(),
            have_report: false,
        };
        for idiom in [
            Idiom::SumLoop,
            Idiom::MarkLoop,
            Idiom::SentinelSearch,
            Idiom::ListWalk,
            Idiom::GuardedDiv,
            Idiom::ErrorPath,
            Idiom::HotCall,
            Idiom::Dispatch,
            Idiom::Recurse,
            Idiom::FloatKernel,
            Idiom::CheckedUpdate,
            Idiom::NoiseBits,
            Idiom::BubblePass,
        ] {
            g.emit(idiom);
        }
        for marker in [
            "sum_", "mark_", "find_", "walk_", "gdiv_", "scan_", "dispatchq_", "exec_", "rec_",
            "relax_", "cupd_", "bits_", "bsort_",
        ] {
            assert!(g.out.contains(marker), "idiom {marker} missing:\n{}", g.out);
        }
        let mut src = g.out.clone();
        src.push_str("int main() { return 0; }\n");
        esp_lang::cee::parse("t", &src).expect("parses");
    }
}
