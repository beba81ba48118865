//! The orderings `EXPERIMENTS.md` claims for Table 4, read from the pinned
//! table (`perfbench/reference/table4.txt`, which `repro_tables table4`
//! reproduces byte for byte). A corpus change that re-pins Table 4 must
//! change this test on purpose when a claim stops holding.

use std::collections::HashMap;

/// Column order of the table's average rows.
const BTFNT: usize = 0;
const APHC: usize = 1;
const DSHC_BL: usize = 2;
const DSHC_OURS: usize = 3;
const ESP: usize = 4;
const PERFECT: usize = 5;

/// Every `… Avg` row of the pinned table: label → its six percentages.
fn averages() -> HashMap<String, [u32; 6]> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/perfbench/reference/table4.txt"
    );
    let text = std::fs::read_to_string(path).expect("pinned Table 4 is readable");
    let mut rows = HashMap::new();
    for line in text.lines() {
        let Some(split) = line.find(" Avg") else {
            continue;
        };
        let (label, rest) = line.split_at(split + " Avg".len());
        let cols: Vec<u32> = rest
            .split_whitespace()
            .map(|c| c.parse().expect("an integer percentage"))
            .collect();
        let cols: [u32; 6] = cols.try_into().expect("six columns");
        rows.insert(label.to_string(), cols);
    }
    rows
}

#[test]
fn overall_ordering_is_perfect_esp_heuristics_btfnt() {
    let all = averages();
    let a = all["Overall Avg"];
    assert!(a[PERFECT] < a[ESP], "Perfect < ESP: {a:?}");
    assert!(a[ESP] < a[APHC], "ESP < APHC: {a:?}");
    assert_eq!(a[APHC], a[DSHC_BL], "APHC = DSHC(B&L): {a:?}");
    assert_eq!(a[APHC], a[DSHC_OURS], "APHC = DSHC(Ours): {a:?}");
    assert!(a[APHC] < a[BTFNT], "APHC < BTFNT: {a:?}");
}

#[test]
fn esp_beats_aphc_in_every_group_but_spec_c_where_they_tie() {
    let all = averages();
    assert_eq!(all.len(), 5, "four group averages and the overall one");
    for group in ["Other C Avg", "SPEC Fortran Avg", "Perf Club Avg"] {
        let a = all[group];
        assert!(a[ESP] < a[APHC], "{group}: ESP < APHC: {a:?}");
    }
    let spec_c = all["SPEC C Avg"];
    assert_eq!(spec_c[ESP], spec_c[APHC], "SPEC C: ESP = APHC: {spec_c:?}");
}
