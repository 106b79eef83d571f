//! Workspace walker and report front-end for `primacy-lint`.
//!
//! Usage:
//!
//! ```text
//! primacy-lint [workspace-root] [--json] [--baseline FILE] [--write-baseline FILE]
//! ```
//!
//! Scans every source under `crates/*/src` and the root `src/`. Library
//! sources get the full rule set; binary sources (`src/bin/`, `main.rs`)
//! get the interprocedural taint and unsafe/concurrency rules but are
//! exempt from the panic-discipline rules — aborting on bad CLI input is
//! acceptable there, and they never run in another process's address
//! space. A module that declares `#![warn(clippy::indexing_slicing)]`,
//! and every module below it, is untrusted-input code where `overflow`
//! applies. The whole workspace is analyzed together so untrusted lengths
//! track through helper functions via the call graph.
//!
//! - `--json` prints the full diagnostics document instead of the human
//!   report;
//! - `--baseline FILE` additionally gates against a checked-in snapshot:
//!   any `(file, rule)` pair with more findings, more suppressions, or
//!   more allow directives than the snapshot fails the run, printing a
//!   per-rule delta table;
//! - `--write-baseline FILE` regenerates the snapshot from this run.
//!
//! Exits 0 when clean (and within baseline), 1 otherwise.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use primacy_lint::report::{compare, render_delta_table, FileEntry, WorkspaceReport};
use primacy_lint::rules::{declares_untrusted, FileContext, Rule};
use primacy_lint::{analyze_workspace, SourceFile};

struct Options {
    root: PathBuf,
    json: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: false,
        baseline: None,
        write_baseline: None,
    };
    let mut args = std::env::args().skip(1);
    let mut saw_root = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--baseline" => {
                let path = args.next().ok_or("--baseline needs a file argument")?;
                opts.baseline = Some(PathBuf::from(path));
            }
            "--write-baseline" => {
                let path = args
                    .next()
                    .ok_or("--write-baseline needs a file argument")?;
                opts.write_baseline = Some(PathBuf::from(path));
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            root => {
                if saw_root {
                    return Err(format!("unexpected extra argument {root}"));
                }
                saw_root = true;
                opts.root = PathBuf::from(root);
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("primacy-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut paths = Vec::new();
    collect_sources(&opts.root, &mut paths);
    if paths.is_empty() {
        eprintln!(
            "primacy-lint: no sources found under {}",
            opts.root.display()
        );
        return ExitCode::FAILURE;
    }
    paths.sort();

    let mut sources = Vec::new();
    for path in &paths {
        let rel = relative_unix(&opts.root, path);
        let src = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("primacy-lint: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        };
        sources.push(SourceFile {
            rel,
            src,
            ctx: FileContext::default(),
        });
    }
    let declared: BTreeMap<&str, bool> = sources
        .iter()
        .map(|s| (s.rel.as_str(), declares_untrusted(&s.src)))
        .collect();
    let contexts: Vec<FileContext> = sources
        .iter()
        .map(|s| FileContext {
            untrusted: in_untrusted_scope(&s.rel, &declared),
            binary: is_binary_source(&s.rel),
        })
        .collect();
    for (source, ctx) in sources.iter_mut().zip(contexts) {
        source.ctx = ctx;
    }

    let reports = analyze_workspace(&sources);
    let mut ws = WorkspaceReport::default();
    for (source, report) in sources.into_iter().zip(reports) {
        ws.files.push(FileEntry {
            rel: source.rel,
            report,
        });
    }

    if let Some(path) = &opts.write_baseline {
        let text = ws.baseline().to_json();
        if let Err(e) = fs::write(path, text + "\n") {
            eprintln!("primacy-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("primacy-lint: baseline written to {}", path.display());
    }

    if opts.json {
        println!("{}", ws.to_json().to_json());
    } else {
        print_human(&ws, paths.len());
    }

    let mut failed = ws.total_findings() > 0;

    if let Some(path) = &opts.baseline {
        match load_baseline(path) {
            Ok(baseline) => {
                let regressions = compare(&ws.baseline(), &baseline);
                if regressions.is_empty() {
                    eprintln!("primacy-lint: baseline gate passed ({})", path.display());
                } else {
                    eprintln!(
                        "primacy-lint: baseline regression ({} key(s) above {}):",
                        regressions.len(),
                        path.display()
                    );
                    eprint!("{}", render_delta_table(&regressions));
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("primacy-lint: {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load_baseline(path: &Path) -> Result<primacy_trace::json::Value, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    primacy_trace::json::parse(&text)
        .map_err(|e| format!("malformed baseline {}: {e}", path.display()))
}

fn print_human(ws: &WorkspaceReport, scanned: usize) {
    let mut per_rule: Vec<(&'static str, usize)> = Vec::new();
    let mut suppressed: Vec<(&'static str, usize)> = Vec::new();
    for entry in &ws.files {
        for (name, n) in &entry.report.suppressed {
            bump(&mut suppressed, name, *n);
        }
        for f in &entry.report.findings {
            println!(
                "{}:{}: [{}] {}",
                entry.rel,
                f.line,
                f.rule.name(),
                f.message
            );
            bump(&mut per_rule, f.rule.name(), 1);
        }
    }
    println!(
        "primacy-lint: {} file(s) scanned, {} violation(s), {} allow directive(s)",
        scanned,
        ws.total_findings(),
        ws.total_allows()
    );
    for (name, n) in &per_rule {
        println!("  violations[{name}] = {n}");
    }
    for (name, n) in &suppressed {
        println!("  suppressed[{name}] = {n}");
    }
}

fn bump(counts: &mut Vec<(&'static str, usize)>, name: &str, by: usize) {
    match counts.iter_mut().find(|(n, _)| *n == name) {
        Some((_, n)) => *n += by,
        None => {
            // The rule names are the only strings that reach here; map
            // them back to 'static so the counter stays allocation-free.
            for known in Rule::ALL_NAMES {
                if known == name {
                    counts.push((known, by));
                    return;
                }
            }
        }
    }
}

/// Is this a binary source (relaxed panic rules)? Matches `main.rs`
/// anywhere and anything under a `bin/` directory.
fn is_binary_source(rel: &str) -> bool {
    rel.ends_with("/main.rs") || rel == "main.rs" || rel.split('/').any(|c| c == "bin")
}

/// Does `rel`, or the module file above it, declare the untrusted scope?
/// rustc carries a module's inner attribute down to its child modules, so
/// `bwt/suffix.rs` inherits the declaration at the top of `bwt/mod.rs`.
/// `declared` maps every scanned file to its own declaration.
fn in_untrusted_scope(rel: &str, declared: &BTreeMap<&str, bool>) -> bool {
    if declared.get(rel).copied().unwrap_or(false) {
        return true;
    }
    let Some((dir, file)) = rel.rsplit_once('/') else {
        return false;
    };
    // The directory whose module file declares this one: its own for a
    // leaf file, the one above for a `mod.rs`. Crate roots have none.
    let owner = match file {
        "lib.rs" | "main.rs" => return false,
        "mod.rs" => match dir.rsplit_once('/') {
            Some((up, _)) => up,
            None => return false,
        },
        _ => dir,
    };
    [
        format!("{owner}/mod.rs"),
        format!("{owner}/lib.rs"),
        format!("{owner}.rs"),
    ]
    .iter()
    .any(|parent| declared.contains_key(parent.as_str()) && in_untrusted_scope(parent, declared))
}

/// Gather every `.rs` under `crates/*/src` and the root `src/`.
fn collect_sources(root: &Path, out: &mut Vec<PathBuf>) {
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                walk_rs(&src, out);
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs(&root_src, out);
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn relative_unix(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_modules_inherit_the_untrusted_declaration() {
        let declared: BTreeMap<&str, bool> = [
            ("crates/c/src/lib.rs", false),
            ("crates/c/src/bwt/mod.rs", true),
            ("crates/c/src/bwt/suffix.rs", false),
            ("crates/c/src/deflate/mod.rs", false),
            ("crates/c/src/deflate/decode.rs", true),
            ("crates/c/src/deflate/encode.rs", false),
            ("crates/c/src/fpz.rs", true),
            ("crates/c/src/fpz/range.rs", false),
            ("crates/c/src/bin/tool.rs", false),
        ]
        .into_iter()
        .collect();
        assert!(in_untrusted_scope("crates/c/src/bwt/mod.rs", &declared));
        assert!(in_untrusted_scope("crates/c/src/bwt/suffix.rs", &declared));
        assert!(in_untrusted_scope(
            "crates/c/src/deflate/decode.rs",
            &declared
        ));
        assert!(in_untrusted_scope("crates/c/src/fpz/range.rs", &declared));
        assert!(!in_untrusted_scope(
            "crates/c/src/deflate/encode.rs",
            &declared
        ));
        assert!(!in_untrusted_scope("crates/c/src/lib.rs", &declared));
        assert!(!in_untrusted_scope("crates/c/src/bin/tool.rs", &declared));
    }
}
