//! Structural validation of every corpus generator under *every* compiler
//! configuration. `suite_integrity` already validates the two reference
//! configurations and executes them; this test is the cheap wide net — the
//! IR validator must accept all 43 programs under all six pass mixes,
//! since downstream analyses (esp-analyze, the linter, feature extraction)
//! assume validator-clean input.

use esp_corpus::suite;
use esp_ir::validate_program;
use esp_lang::CompilerConfig;

#[test]
fn every_program_validates_under_every_config() {
    let configs = [
        CompilerConfig::o0(),
        CompilerConfig::cc_osf1_v12(),
        CompilerConfig::cc_osf1_v20(),
        CompilerConfig::gem(),
        CompilerConfig::gnu(),
        CompilerConfig::mips_ref(),
    ];
    let benches = suite();
    assert_eq!(benches.len(), 43, "the corpus is the paper's 43 programs");
    for cfg in &configs {
        for bench in &benches {
            let prog = bench
                .compile(cfg)
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", bench.name, cfg.name));
            validate_program(&prog)
                .unwrap_or_else(|e| panic!("{} [{}]: invalid IR: {e}", bench.name, cfg.name));
        }
    }
}
