//! Compiled-and-profiled benchmark data.

use esp_corpus::{select, suite, Benchmark};
use esp_exec::Profile;
use esp_ir::{Lang, Program, ProgramAnalysis};
use esp_lang::CompilerConfig;

/// One benchmark, compiled under a configuration and profiled once.
pub struct BenchData {
    /// The benchmark's identity and personality.
    pub bench: Benchmark,
    /// The compiled program.
    pub prog: Program,
    /// Its CFG/dominator/loop/pointer analyses.
    pub analysis: ProgramAnalysis,
    /// Its single-run branch profile (the paper runs each program once).
    pub profile: Profile,
}

impl BenchData {
    /// Compile and profile one benchmark.
    ///
    /// # Panics
    ///
    /// Panics when the benchmark fails to compile or run — both are corpus
    /// bugs caught by the test suite.
    pub fn build(bench: &Benchmark, cfg: &CompilerConfig) -> Self {
        let _sp = esp_obs::span!("corpus", "profile_bench", bench = bench.name);
        let prog = bench
            .compile(cfg)
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to compile: {e}", bench.name));
        let analysis = ProgramAnalysis::analyze(&prog);
        let profile = esp_corpus::profile(&prog)
            .unwrap_or_else(|e| panic!("benchmark `{}` failed to run: {e}", bench.name));
        BenchData {
            bench: bench.clone(),
            prog,
            analysis,
            profile,
        }
    }
}

/// The whole suite, compiled and profiled under one configuration.
pub struct SuiteData {
    /// Per-benchmark data, in Table 3 order.
    pub benches: Vec<BenchData>,
    /// The configuration used.
    pub config: CompilerConfig,
}

impl SuiteData {
    /// Build the full 43-program suite under `cfg` on `threads` workers
    /// (`0` = one per core, `1` = fully serial). Generation, compilation
    /// and the profiling interpreter run are all pure functions of the
    /// benchmark definition, so the thread count cannot change any profile.
    pub fn build_with_threads(cfg: &CompilerConfig, threads: usize) -> Self {
        Self::build_benches(suite(), cfg, threads)
    }

    /// Build only the named benchmarks, in the order given, on `threads`
    /// workers as [`SuiteData::build_with_threads`] does.
    ///
    /// # Panics
    ///
    /// Panics on a name [`esp_corpus::select`] does not know.
    pub fn build_subset(names: &[&str], cfg: &CompilerConfig, threads: usize) -> Self {
        let picked = select(names).unwrap_or_else(|name| panic!("unknown benchmark `{name}`"));
        Self::build_benches(picked, cfg, threads)
    }

    fn build_benches(benches: Vec<Benchmark>, cfg: &CompilerConfig, threads: usize) -> Self {
        let _sp = esp_obs::span!("corpus", "build_suite", programs = benches.len());
        SuiteData {
            benches: esp_runtime::parallel_map(threads, &benches, |b| BenchData::build(b, cfg)),
            config: *cfg,
        }
    }

    /// Indices of benchmarks in `lang`.
    pub fn lang_indices(&self, lang: Lang) -> Vec<usize> {
        self.benches
            .iter()
            .enumerate()
            .filter(|(_, b)| b.bench.lang == lang)
            .map(|(i, _)| i)
            .collect()
    }

    /// Find a benchmark by name.
    pub fn by_name(&self, name: &str) -> Option<&BenchData> {
        self.benches.iter().find(|b| b.bench.name == name)
    }
}
