//! Compiled-and-profiled benchmark data.

use esp_corpus::{suite, Benchmark};
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
    /// Build the full 43-program suite under `cfg`, compiling and profiling
    /// benchmarks concurrently (one worker per core).
    pub fn build(cfg: &CompilerConfig) -> Self {
        Self::build_with_threads(cfg, 0)
    }

    /// Build the full suite on an explicit number of workers (`0` = one per
    /// core, `1` = fully serial). Generation, compilation and the profiling
    /// interpreter run are all pure functions of the benchmark definition,
    /// so the thread count cannot change any profile.
    pub fn build_with_threads(cfg: &CompilerConfig, threads: usize) -> Self {
        let all = suite();
        let _sp = esp_obs::span!("corpus", "build_suite", programs = all.len());
        SuiteData {
            benches: esp_runtime::parallel_map(threads, &all, |b| BenchData::build(b, cfg)),
            config: *cfg,
        }
    }

    /// Build only the named benchmarks (for fast tests).
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn build_subset(names: &[&str], cfg: &CompilerConfig) -> Self {
        let all = suite();
        let picked: Vec<&Benchmark> = names
            .iter()
            .map(|n| {
                all.iter()
                    .find(|b| b.name == *n)
                    .unwrap_or_else(|| panic!("unknown benchmark `{n}`"))
            })
            .collect();
        let _sp = esp_obs::span!("corpus", "build_suite", programs = picked.len());
        SuiteData {
            benches: esp_runtime::parallel_map(0, &picked, |b| BenchData::build(b, cfg)),
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
