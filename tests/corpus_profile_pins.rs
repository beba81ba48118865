//! Pins the profile of every corpus program, bit for bit.
//!
//! Each of the 43 programs is compiled under the default configuration and
//! profiled once, exactly as the Table 4 pipeline does; its [`Profile`] is
//! folded into one FNV-1a digest covering every block's execution count,
//! every executed branch site's `(BranchId, executed, taken)`, and the two
//! dynamic totals. A change to how the interpreter counts — the data
//! structure behind the profile, the order it visits blocks in — must leave
//! every digest unchanged.

use esp_obs::Fnv1a;
use esp_repro::corpus::{profile, suite};
use esp_repro::exec::Profile;
use esp_repro::ir::Program;
use esp_repro::lang::CompilerConfig;

/// `(program, digest)` in suite order.
const PINS: &[(&str, u64)] = &[
    ("bc", 0x832abc22ea91ac81),
    ("bison", 0x4fd50f247ef2d03a),
    ("burg", 0x033c00f6a0b1f8ea),
    ("flex", 0x9b7e5dc0dcbe05db),
    ("grep", 0x0ca87f4256e82885),
    ("gzip", 0xaa5174838d6c8e15),
    ("indent", 0x711d20743356f8ee),
    ("od", 0x66dc838a5fa22506),
    ("perl", 0x8fc0a3a543a3c2bc),
    ("sed", 0x23857abf85802fac),
    ("siod", 0x5f76f605e522919c),
    ("sort", 0x170538f1c204e548),
    ("tex", 0x3417ddec737cff9a),
    ("wdiff", 0x1f2591d2922e9d96),
    ("yacr", 0x556e0e770473cbcd),
    ("alvinn", 0x9ce850976f23b28f),
    ("compress", 0x7049bdaa305ba523),
    ("ear", 0xca63a483239d83bd),
    ("eqntott", 0x30d99e106dea2d89),
    ("espresso", 0xc83f0298bd52bc1d),
    ("gcc", 0x9e439685904f0b8b),
    ("li", 0x03104c2b80111176),
    ("sc", 0xbe86fb1e8dab4046),
    ("doduc", 0x3b32fd9a51a8ae13),
    ("fpppp", 0x4e697a393945802d),
    ("hydro2d", 0x8c778a2a2aa32b4b),
    ("mdljsp2", 0x12e39b765c87bb36),
    ("nasa7", 0x317c9998d8c133d4),
    ("ora", 0x4d2ffdea8bdca264),
    ("spice", 0x5dc24694aa9fd0db),
    ("su2cor", 0xf5827ca24793588d),
    ("swm256", 0x982435df1e818a35),
    ("tomcatv", 0x077096dece6f099d),
    ("wave5", 0xcd06a61a8602d1e6),
    ("APS", 0x9516ba5d01528e70),
    ("CSS", 0x362080e123a4c7eb),
    ("LWS", 0x2bae25ed2ed94088),
    ("NAS", 0xe8493868a5c885fb),
    ("OCS", 0xed9a18ca82f43ad5),
    ("SDS", 0x4d8753c1b86751f7),
    ("TFS", 0x29c11fc49ddbda4b),
    ("TIS", 0x222758628e66ed83),
    ("WSS", 0xed6b93bfc0b3fe6e),
];

/// Corpus-wide dynamic IR instructions (perfbench's `exec.dyn_insns`).
const TOTAL_DYN_INSNS: u64 = 99_043_530;

fn digest(prog: &Program, p: &Profile) -> u64 {
    let mut h = Fnv1a::default();
    for (func, f) in prog.iter_funcs() {
        for (block, _) in f.iter_blocks() {
            h.write(&p.block_count(func, block).to_le_bytes());
        }
    }
    for (id, c) in p.iter() {
        h.write(&id.func.0.to_le_bytes());
        h.write(&id.block.0.to_le_bytes());
        h.write(&c.executed.to_le_bytes());
        h.write(&c.taken.to_le_bytes());
    }
    h.write(&p.dyn_insns.to_le_bytes());
    h.write(&p.dyn_cond_branches.to_le_bytes());
    h.finish()
}

#[test]
fn every_corpus_profile_is_pinned() {
    let all = suite();
    let cfg = CompilerConfig::default();
    let got: Vec<(&str, u64, u64)> = esp_runtime::parallel_map(0, &all, |b| {
        let prog = b.compile(&cfg).expect("compiles");
        let p = profile(&prog).expect("runs");
        (b.name, digest(&prog, &p), p.dyn_insns)
    });
    let total: u64 = got.iter().map(|g| g.2).sum();
    assert_eq!(total, TOTAL_DYN_INSNS, "corpus dynamic instruction count");
    let digests: Vec<(&str, u64)> = got.iter().map(|g| (g.0, g.1)).collect();
    assert_eq!(digests, PINS, "a corpus profile changed");
}
