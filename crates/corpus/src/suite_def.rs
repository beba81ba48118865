//! The 43 benchmarks and their personalities.

use esp_ir::{Lang, Program};
use esp_lang::{CompileError, CompilerConfig};

use crate::personality::Personality;
use crate::{gen_cee, gen_fort};

/// Which group of the paper's Table 3/4 a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// The non-SPEC C utilities ("Other C": bc … yacr).
    OtherC,
    /// SPEC92 C programs.
    SpecC,
    /// SPEC92 Fortran programs.
    SpecFortran,
    /// Perfect Club Fortran programs.
    PerfectClub,
}

impl Group {
    /// Display label matching the paper's table footers.
    pub fn label(self) -> &'static str {
        match self {
            Group::OtherC => "Other C",
            Group::SpecC => "SPEC C",
            Group::SpecFortran => "SPEC Fortran",
            Group::PerfectClub => "Perf Club",
        }
    }
}

/// One benchmark of the corpus.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The paper's program name (e.g. `"tomcatv"`).
    pub name: &'static str,
    /// Source language.
    pub lang: Lang,
    /// Table group.
    pub group: Group,
    /// Generation knobs.
    pub personality: Personality,
}

impl Benchmark {
    /// Deterministically generate this benchmark's source text.
    pub fn source(&self) -> String {
        match self.lang {
            Lang::C => gen_cee::generate(self.name, &self.personality),
            Lang::Fort => gen_fort::generate(self.name, &self.personality),
        }
    }

    /// Generate and compile under `cfg`.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] here is a corpus-generator bug; the test suite
    /// compiles every benchmark under every configuration.
    pub fn compile(&self, cfg: &CompilerConfig) -> Result<Program, CompileError> {
        esp_lang::compile_source(self.name, &self.source(), self.lang, cfg)
    }
}

/// Shorthand constructor.
fn b(name: &'static str, lang: Lang, group: Group, personality: Personality) -> Benchmark {
    Benchmark {
        name,
        lang,
        group,
        personality,
    }
}

/// The full 43-program suite, in the paper's Table 3 order: 15 "Other C",
/// 8 SPEC C, 11 SPEC Fortran, 9 Perfect Club.
///
/// Personalities are tuned from Table 3: long-trip loop programs for the
/// high %taken entries (`alvinn` 97.8%, `tomcatv` 99.3%, `swm256` 98.4%),
/// noisy/branchy mixes for the low ones (`perl` 39.9%, `bc` 42.4%,
/// `doduc` 48.7%), pointer-heavy mixes for the interpreters (`li`, `siod`,
/// `perl`), float-dominated mixes for the numeric codes.
pub fn suite() -> Vec<Benchmark> {
    use Group::*;
    use Lang::{Fort, C};
    let d = Personality::default;
    vec![
        // ----- Other C ----------------------------------------------------
        b(
            "bc",
            C,
            OtherC,
            Personality {
                funcs: 16,
                loop_trip: 10,
                noise_weight: 5,
                switch_weight: 2,
                ..d()
            },
        ),
        b(
            "bison",
            C,
            OtherC,
            Personality {
                funcs: 18,
                loop_trip: 60,
                switch_weight: 3,
                ..d()
            },
        ),
        b(
            "burg",
            C,
            OtherC,
            Personality {
                funcs: 14,
                loop_trip: 25,
                rec_weight: 3,
                noise_weight: 3,
                ..d()
            },
        ),
        b(
            "flex",
            C,
            OtherC,
            Personality {
                funcs: 18,
                loop_trip: 45,
                switch_weight: 3,
                noise_weight: 2,
                ..d()
            },
        ),
        b(
            "grep",
            C,
            OtherC,
            Personality {
                funcs: 11,
                loop_trip: 55,
                noise_weight: 2,
                error_rarity: 24,
                ..d()
            },
        ),
        b(
            "gzip",
            C,
            OtherC,
            Personality {
                funcs: 13,
                loop_trip: 30,
                noise_weight: 4,
                ptr_weight: 1,
                ..d()
            },
        ),
        b(
            "indent",
            C,
            OtherC,
            Personality {
                funcs: 14,
                loop_trip: 18,
                noise_weight: 3,
                switch_weight: 2,
                ..d()
            },
        ),
        b(
            "od",
            C,
            OtherC,
            Personality {
                funcs: 11,
                loop_trip: 12,
                noise_weight: 5,
                ..d()
            },
        ),
        b(
            "perl",
            C,
            OtherC,
            Personality {
                funcs: 22,
                loop_trip: 8,
                ptr_weight: 4,
                switch_weight: 3,
                rec_weight: 2,
                noise_weight: 5,
                ..d()
            },
        ),
        b(
            "sed",
            C,
            OtherC,
            Personality {
                funcs: 13,
                loop_trip: 50,
                noise_weight: 2,
                error_rarity: 20,
                ..d()
            },
        ),
        b(
            "siod",
            C,
            OtherC,
            Personality {
                funcs: 18,
                loop_trip: 14,
                ptr_weight: 5,
                rec_weight: 3,
                noise_weight: 3,
                ..d()
            },
        ),
        b(
            "sort",
            C,
            OtherC,
            Personality {
                funcs: 11,
                loop_trip: 35,
                noise_weight: 4,
                ..d()
            },
        ),
        b(
            "tex",
            C,
            OtherC,
            Personality {
                funcs: 23,
                loop_trip: 28,
                switch_weight: 2,
                noise_weight: 3,
                ..d()
            },
        ),
        b(
            "wdiff",
            C,
            OtherC,
            Personality {
                funcs: 9,
                loop_trip: 40,
                noise_weight: 3,
                ..d()
            },
        ),
        b(
            "yacr",
            C,
            OtherC,
            Personality {
                funcs: 13,
                loop_trip: 70,
                error_rarity: 128,
                ..d()
            },
        ),
        // ----- SPEC C -----------------------------------------------------
        b(
            "alvinn",
            C,
            SpecC,
            Personality {
                funcs: 9,
                main_iters: 12,
                loop_trip: 220,
                noise_weight: 0,
                float_weight: 4,
                ptr_weight: 0,
                switch_weight: 0,
                rec_weight: 0,
                error_rarity: 4096,
                ..d()
            },
        ),
        b(
            "compress",
            C,
            SpecC,
            Personality {
                funcs: 9,
                loop_trip: 45,
                noise_weight: 3,
                ptr_weight: 1,
                ..d()
            },
        ),
        b(
            "ear",
            C,
            SpecC,
            Personality {
                funcs: 9,
                main_iters: 14,
                loop_trip: 150,
                float_weight: 4,
                noise_weight: 1,
                ptr_weight: 0,
                ..d()
            },
        ),
        b(
            "eqntott",
            C,
            SpecC,
            Personality {
                funcs: 9,
                loop_trip: 160,
                noise_weight: 1,
                error_rarity: 512,
                ..d()
            },
        ),
        b(
            "espresso",
            C,
            SpecC,
            Personality {
                funcs: 20,
                loop_trip: 35,
                noise_weight: 3,
                switch_weight: 1,
                ..d()
            },
        ),
        b(
            "gcc",
            C,
            SpecC,
            Personality {
                funcs: 29,
                loop_trip: 20,
                switch_weight: 3,
                ptr_weight: 3,
                rec_weight: 2,
                noise_weight: 3,
                ..d()
            },
        ),
        b(
            "li",
            C,
            SpecC,
            Personality {
                funcs: 18,
                loop_trip: 10,
                ptr_weight: 5,
                rec_weight: 4,
                noise_weight: 4,
                ..d()
            },
        ),
        b(
            "sc",
            C,
            SpecC,
            Personality {
                funcs: 16,
                loop_trip: 45,
                switch_weight: 2,
                noise_weight: 2,
                ..d()
            },
        ),
        // ----- SPEC Fortran -----------------------------------------------
        b(
            "doduc",
            Fort,
            SpecFortran,
            Personality {
                funcs: 18,
                loop_trip: 12,
                noise_weight: 5,
                float_weight: 4,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "fpppp",
            Fort,
            SpecFortran,
            Personality {
                funcs: 14,
                loop_trip: 8,
                noise_weight: 6,
                float_weight: 6,
                ptr_weight: 0,
                switch_weight: 0,
                rec_weight: 0,
                ..d()
            },
        ),
        b(
            "hydro2d",
            Fort,
            SpecFortran,
            Personality {
                funcs: 13,
                loop_trip: 80,
                float_weight: 4,
                noise_weight: 1,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "mdljsp2",
            Fort,
            SpecFortran,
            Personality {
                funcs: 11,
                loop_trip: 90,
                float_weight: 3,
                noise_weight: 2,
                error_rarity: 12,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "nasa7",
            Fort,
            SpecFortran,
            Personality {
                funcs: 13,
                main_iters: 12,
                loop_trip: 110,
                float_weight: 4,
                noise_weight: 1,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "ora",
            Fort,
            SpecFortran,
            Personality {
                funcs: 9,
                loop_trip: 30,
                float_weight: 5,
                noise_weight: 4,
                ptr_weight: 0,
                switch_weight: 0,
                rec_weight: 0,
                ..d()
            },
        ),
        b(
            "spice",
            Fort,
            SpecFortran,
            Personality {
                funcs: 22,
                loop_trip: 60,
                float_weight: 3,
                noise_weight: 2,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "su2cor",
            Fort,
            SpecFortran,
            Personality {
                funcs: 13,
                loop_trip: 70,
                float_weight: 4,
                noise_weight: 2,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "swm256",
            Fort,
            SpecFortran,
            Personality {
                funcs: 9,
                main_iters: 10,
                loop_trip: 250,
                float_weight: 5,
                noise_weight: 0,
                error_rarity: 8192,
                ptr_weight: 0,
                switch_weight: 0,
                rec_weight: 0,
                ..d()
            },
        ),
        b(
            "tomcatv",
            Fort,
            SpecFortran,
            Personality {
                funcs: 9,
                main_iters: 10,
                loop_trip: 230,
                float_weight: 6,
                noise_weight: 0,
                error_rarity: 4096,
                ptr_weight: 0,
                switch_weight: 0,
                rec_weight: 0,
                ..d()
            },
        ),
        b(
            "wave5",
            Fort,
            SpecFortran,
            Personality {
                funcs: 16,
                loop_trip: 40,
                float_weight: 3,
                noise_weight: 3,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        // ----- Perfect Club -----------------------------------------------
        b(
            "APS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 16,
                loop_trip: 15,
                noise_weight: 4,
                float_weight: 3,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "CSS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 16,
                loop_trip: 20,
                noise_weight: 3,
                float_weight: 2,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "LWS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 11,
                loop_trip: 55,
                float_weight: 4,
                noise_weight: 2,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "NAS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 13,
                loop_trip: 45,
                float_weight: 4,
                noise_weight: 2,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "OCS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 11,
                main_iters: 12,
                loop_trip: 130,
                float_weight: 4,
                noise_weight: 1,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "SDS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 14,
                loop_trip: 18,
                noise_weight: 4,
                float_weight: 2,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "TFS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 13,
                loop_trip: 85,
                float_weight: 3,
                noise_weight: 1,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "TIS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 11,
                loop_trip: 14,
                noise_weight: 5,
                float_weight: 2,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
        b(
            "WSS",
            Fort,
            PerfectClub,
            Personality {
                funcs: 14,
                loop_trip: 35,
                noise_weight: 2,
                float_weight: 3,
                ptr_weight: 0,
                switch_weight: 0,
                ..d()
            },
        ),
    ]
}

/// The benchmarks of [`suite`] that `names` names, in the order given: the
/// one resolver behind every `--subset NAME,…` list.
///
/// # Errors
///
/// Returns the first name that is not a corpus benchmark.
pub fn select<'a>(names: &[&'a str]) -> Result<Vec<Benchmark>, &'a str> {
    let all = suite();
    names
        .iter()
        .map(|&name| all.iter().find(|b| b.name == name).cloned().ok_or(name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_keeps_the_given_order_and_names_the_first_unknown() {
        let picked = select(&["sort", "bc", "sort"]).expect("known names");
        let names: Vec<&str> = picked.iter().map(|b| b.name).collect();
        assert_eq!(names, ["sort", "bc", "sort"]);
        assert_eq!(select(&["sort", "nosuch", "grepp"]).err(), Some("nosuch"));
        assert!(select(&[]).expect("empty list").is_empty());
    }

    #[test]
    fn suite_shape_matches_paper() {
        let s = suite();
        assert_eq!(s.len(), 43);
        assert_eq!(s.iter().filter(|b| b.lang == Lang::C).count(), 23);
        assert_eq!(s.iter().filter(|b| b.lang == Lang::Fort).count(), 20);
        assert_eq!(s.iter().filter(|b| b.group == Group::OtherC).count(), 15);
        assert_eq!(s.iter().filter(|b| b.group == Group::SpecC).count(), 8);
        assert_eq!(
            s.iter().filter(|b| b.group == Group::SpecFortran).count(),
            11
        );
        assert_eq!(
            s.iter().filter(|b| b.group == Group::PerfectClub).count(),
            9
        );
        // names unique
        let mut names: Vec<_> = s.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 43);
        // Fortran programs use no pointers
        for bench in s.iter().filter(|b| b.lang == Lang::Fort) {
            assert_eq!(bench.personality.ptr_weight, 0, "{}", bench.name);
        }
        assert_eq!(Group::OtherC.label(), "Other C");
    }

    #[test]
    fn generation_is_deterministic() {
        let s = suite();
        assert_eq!(s[0].source(), s[0].source());
        assert_eq!(s[30].source(), s[30].source());
    }
}
