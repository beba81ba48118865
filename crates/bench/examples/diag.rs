use esp_heur::{Aphc, BranchCtx, Btfnt};
use esp_ir::{Lang, ProgramAnalysis};
use esp_lang::{compile_source, CompilerConfig};

fn main() {
    let src = r#"
int dker(int seed) {
    int a[50];
    int i;
    int s = 0;
    int x = seed + 17;
    for (i = 0; i < 50; i = i + 1) {
        x = (x * 1103515245 + 12345) % 2147483647;
        a[i] = x % 1000;
    }
    for (i = 0; i < 50; i = i + 1) {
        if (a[i] > 150) { s = s + a[i]; } else { s = s + 1; }
    }
    return s;
}
int main() {
    int it;
    int acc = 0;
    for (it = 0; it < 20; it = it + 1) { acc = acc + dker(it * 977); }
    return acc % 1000;
}
"#;
    let prog = compile_source("diag", src, Lang::C, &CompilerConfig::default()).unwrap();
    let analysis = ProgramAnalysis::analyze(&prog);
    let out = esp_exec::run(&prog, &esp_exec::ExecLimits::default()).unwrap();
    let aphc = Aphc::table1_order();
    println!("{}", prog);
    for site in prog.branch_sites() {
        let ctx = BranchCtx::new(&prog, &analysis, site);
        let c = out.profile.counts(site);
        let (exec, taken) = c.map(|c| (c.executed, c.taken)).unwrap_or((0, 0));
        println!(
            "{site}: exec {exec} taken {taken} | BTFNT {} | APHC {:?}",
            Btfnt.predict(&ctx),
            aphc.predict_with_source(&ctx)
                .map(|(h, p)| format!("{} -> {}", h.name(), p)),
        );
    }
}
