//! Regenerates the numeric content of `EXPERIMENTS.md`: `experiments
//! [<figure>…]` prints the blocks (all of [`hlock_bench::FIGURES`] by
//! default, off one sweep), `--write` splices them into the file, `--check`
//! diffs them against it and exits 1 if any is stale. `--quick` (short
//! sweep, one seed) only prints: the committed blocks are full size.

use hlock_bench::{check, render, splice, Harness, Sweep, FIGURES};
use std::path::Path;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("experiments: {problem}");
    eprintln!("usage: experiments [{}]… [--quick | --write | --check]", names.join(" | "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut quick, mut write, mut verify) = (false, false, false);
    let mut figures = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--write" => write = true,
            "--check" => verify = true,
            name => match FIGURES.iter().find(|(n, _)| *n == name) {
                Some((name, _)) => figures.push(*name),
                None => return usage(&format!("unknown figure or flag `{name}`")),
            },
        }
    }
    if u8::from(quick) + u8::from(write) + u8::from(verify) > 1 {
        return usage("--quick, --write and --check exclude each other");
    }
    if figures.is_empty() {
        figures = FIGURES.iter().map(|(name, _)| *name).collect();
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let committed = match std::fs::read_to_string(&path) {
        Ok(doc) => doc,
        Err(e) => return usage(&format!("{}: {e}", path.display())),
    };

    let mut harness = Harness::default();
    if quick {
        harness = Harness { seeds: 1, sweep: vec![2, 5, 10, 20, 40], ..harness };
    }
    let mut sweep = Sweep::new(harness);
    let (mut doc, mut stale) = (committed.clone(), 0);
    for name in figures {
        let body = render(name, &mut sweep).expect("figure names were validated above");
        if write {
            match splice(&doc, name, &body) {
                Ok(spliced) => doc = spliced,
                Err(problem) => return usage(&format!("EXPERIMENTS.md {problem}")),
            }
        } else if verify {
            if let Err(report) = check(&doc, name, &body) {
                eprintln!("EXPERIMENTS.md {report}");
                stale += 1;
            }
        } else {
            println!("<!-- generated:{name} -->\n{body}<!-- /generated -->\n");
        }
    }
    if doc != committed {
        if let Err(e) = std::fs::write(&path, doc) {
            return usage(&format!("{}: {e}", path.display()));
        }
        eprintln!("experiments: EXPERIMENTS.md updated");
    }
    if stale > 0 {
        eprintln!("experiments: {stale} stale block(s); run `experiments --write` and commit");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
