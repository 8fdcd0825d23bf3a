//! EXPERIMENTS.md is generated: the paper's own figures are rendered here
//! at full size, off one sweep, and compared with the committed file
//! (CI's `experiments --check` does the same for every block).

use hlock_bench::{check, render, Harness, Sweep, FIGURES};

const DOC: &str = include_str!("../EXPERIMENTS.md");

#[test]
fn paper_figures_match_experiments_md() {
    let harness = Harness::default();
    let cells = 3 * harness.sweep.len() as u64 * harness.seeds;
    let mut sweep = Sweep::new(harness);
    for figure in ["tables", "fig5", "fig6", "fig7", "headline"] {
        let body = render(figure, &mut sweep).expect("known figure");
        if let Err(report) = check(DOC, figure, &body) {
            panic!("EXPERIMENTS.md {report}\nrun `experiments --write` and commit the result");
        }
    }
    // Four projections of one sweep: 3 protocols × 10 node counts × 3 seeds.
    assert_eq!(sweep.simulations(), cells);
}

#[test]
fn every_number_in_a_table_is_generated() {
    let mut open: Option<&str> = None;
    let mut seen = Vec::new();
    for (i, line) in DOC.lines().enumerate() {
        let line_no = i + 1;
        if let Some(name) = line.strip_prefix("<!-- generated:") {
            assert!(open.is_none(), "line {line_no}: block opened inside `{open:?}`");
            let name = name.strip_suffix(" -->").expect("marker ends in ` -->`");
            open = Some(name);
            seen.push(name);
        } else if line == "<!-- /generated -->" {
            assert!(open.take().is_some(), "line {line_no}: close marker without a block");
        } else if open.is_none() {
            let row_with_digit =
                line.starts_with('|') && line.contains(|c: char| c.is_ascii_digit());
            assert!(!row_with_digit, "line {line_no}: hand-written table row: {line}");
        }
    }
    assert!(open.is_none(), "block `{open:?}` is never closed");
    let figures: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    assert_eq!(seen, figures, "one block per figure, in the order `experiments` prints them");
    for stale in ["not regenerated", "not been regenerated", "table above predates"] {
        assert!(!DOC.contains(stale), "EXPERIMENTS.md still says \"{stale}\"");
    }
}
