//! The documents' evidence citations resolve.
//!
//! DESIGN.md, PAPER.md and README.md back a claim with one of two forms:
//!
//! * ``(evidence: `path/to/file.rs::fn_name`)`` — the file, relative to the
//!   repository root, must define `fn fn_name`;
//! * `(evidence: BENCH_NOTES "heading")` — BENCH_NOTES.md must have a
//!   heading with exactly that text.
//!
//! Any other text after `evidence:` is a malformed citation and fails too,
//! so a typo cannot turn a citation into prose the check skips.

use std::path::Path;

const DOCS: [&str; 3] = ["DESIGN.md", "PAPER.md", "README.md"];

fn read(root: &Path, file: &str) -> String {
    std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("read {file}: {e}"))
}

/// Collapses every run of whitespace to one space, so a citation or a
/// heading wrapped across lines reads as one.
fn one_line(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Whether `source` defines a function named `name`.
fn defines_fn(source: &str, name: &str) -> bool {
    let pattern = format!("fn {name}");
    source.match_indices(&pattern).any(|(at, _)| {
        let next = source[at + pattern.len()..].chars().next();
        matches!(next, Some('(') | Some('<'))
    })
}

/// Checks one citation (the text after `evidence: `), returning what is
/// wrong with it, if anything.
fn check(root: &Path, headings: &[String], cited: &str) -> Result<(), String> {
    if let Some(rest) = cited.strip_prefix('`') {
        let end = rest.find('`').ok_or("unclosed backtick")?;
        let (path, name) = rest[..end]
            .rsplit_once("::")
            .ok_or("no `::fn_name` after the path")?;
        let source = std::fs::read_to_string(root.join(path))
            .map_err(|e| format!("cited file {path}: {e}"))?;
        if defines_fn(&source, name) {
            Ok(())
        } else {
            Err(format!("{path} defines no `fn {name}`"))
        }
    } else if let Some(rest) = cited.strip_prefix("BENCH_NOTES \"") {
        let heading = &rest[..rest.find('"').ok_or("unclosed heading quote")?];
        if headings.iter().any(|h| h == heading) {
            Ok(())
        } else {
            Err(format!("BENCH_NOTES.md has no heading \"{heading}\""))
        }
    } else {
        Err("neither `path.rs::fn_name` nor BENCH_NOTES \"heading\"".into())
    }
}

#[test]
fn every_cited_test_and_bench_note_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let headings: Vec<String> = read(root, "BENCH_NOTES.md")
        .lines()
        .filter(|line| line.starts_with('#'))
        .map(|line| one_line(line.trim_start_matches('#')))
        .collect();
    let mut citations = 0;
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = one_line(&read(root, doc));
        for (at, marker) in text.match_indices("evidence: ") {
            let cited = &text[at + marker.len()..];
            citations += 1;
            if let Err(why) = check(root, &headings, cited) {
                let shown: String = cited.chars().take(80).collect();
                broken.push(format!("{doc}: `evidence: {shown}…`: {why}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} of {citations} evidence citations do not resolve:\n{}",
        broken.len(),
        broken.join("\n")
    );
    assert!(citations > 0, "the documents cite no evidence at all");
}
