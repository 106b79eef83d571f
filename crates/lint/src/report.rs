//! Machine-readable diagnostics and the checked-in baseline gate.
//!
//! `primacy-lint --json` emits the full diagnostic set as JSON (via the
//! in-tree `primacy_trace::json`, per the zero-dependency policy), and
//! `--baseline lint-baseline.json` compares the current run against a
//! checked-in snapshot: the gate fails when any `(file, rule)` pair has
//! *more* findings, suppressed findings, or allow directives than the
//! baseline records. Counts may only burn down; regenerate the snapshot
//! with `--write-baseline` after removing debt. On failure the gate
//! prints a per-rule delta table rather than a raw JSON diff.

use std::collections::BTreeMap;

use primacy_trace::json::Value;

use crate::rules::FileReport;

/// The lint results for one scanned file.
#[derive(Debug)]
pub struct FileEntry {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// The rule findings for the file.
    pub report: FileReport,
}

/// Results for a whole workspace scan.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Per-file results, in path order.
    pub files: Vec<FileEntry>,
}

impl WorkspaceReport {
    /// Surviving findings across all files.
    pub fn total_findings(&self) -> usize {
        self.files.iter().map(|f| f.report.findings.len()).sum()
    }

    /// Allow directives across all files.
    pub fn total_allows(&self) -> usize {
        self.files.iter().map(|f| f.report.allow_count).sum()
    }

    /// Full diagnostics document for `--json`.
    pub fn to_json(&self) -> Value {
        let diagnostics: Vec<Value> = self
            .files
            .iter()
            .flat_map(|entry| {
                entry.report.findings.iter().map(|f| {
                    Value::object([
                        ("file", Value::from(entry.rel.as_str())),
                        ("line", Value::from(f.line as usize)),
                        ("rule", Value::from(f.rule.name())),
                        ("message", Value::from(f.message.as_str())),
                    ])
                })
            })
            .collect();
        let mut doc = match self.baseline() {
            Value::Object(map) => map,
            _ => BTreeMap::new(),
        };
        doc.insert("diagnostics".to_string(), Value::Array(diagnostics));
        doc.insert("files_scanned".to_string(), Value::from(self.files.len()));
        Value::Object(doc)
    }

    /// The baseline snapshot: per-`(file, rule)` finding, suppression,
    /// and allow-directive counts. This is what gets checked in as
    /// `lint-baseline.json` and diffed by [`compare`].
    pub fn baseline(&self) -> Value {
        let mut findings: BTreeMap<String, Value> = BTreeMap::new();
        let mut suppressions: BTreeMap<String, Value> = BTreeMap::new();
        let mut directives: BTreeMap<String, Value> = BTreeMap::new();
        for entry in &self.files {
            for f in &entry.report.findings {
                bump(&mut findings, format!("{} {}", entry.rel, f.rule.name()), 1);
            }
            for (rule, n) in &entry.report.suppressed {
                bump(&mut suppressions, format!("{} {rule}", entry.rel), *n);
            }
            for (rule, n) in &entry.report.allows_by_rule {
                bump(&mut directives, format!("{} {rule}", entry.rel), *n);
            }
        }
        Value::object([
            ("findings", Value::Object(findings)),
            ("suppressions", Value::Object(suppressions)),
            ("directives", Value::Object(directives)),
        ])
    }
}

fn bump(map: &mut BTreeMap<String, Value>, key: String, by: usize) {
    let prev = map.get(&key).and_then(Value::as_f64).unwrap_or(0.0) as usize;
    map.insert(key, Value::from(prev + by));
}

/// One `(section, key)` count that grew past the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// `findings`, `suppressions`, or `directives`.
    pub section: &'static str,
    /// The baseline key: `<file> <rule>`.
    pub key: String,
    /// Count in the current run.
    pub now: usize,
    /// Count recorded in the baseline.
    pub was: usize,
}

impl Regression {
    /// The rule name embedded in the key (its last space-separated
    /// token), for per-rule aggregation.
    pub fn rule(&self) -> &str {
        self.key.rsplit(' ').next().unwrap_or(&self.key)
    }
}

/// Compare a current snapshot against the checked-in baseline. Empty
/// means the gate passes. Improvements (counts below baseline) are not
/// regressions — they mean the baseline can be regenerated tighter.
pub fn compare(current: &Value, baseline: &Value) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for section in ["findings", "suppressions", "directives"] {
        let cur = section_map(current, section);
        let base = section_map(baseline, section);
        let empty = BTreeMap::new();
        let cur = cur.unwrap_or(&empty);
        let base_counts = base.unwrap_or(&empty);
        for (key, v) in cur {
            let now = v.as_f64().unwrap_or(0.0) as usize;
            let was = base_counts.get(key).and_then(Value::as_f64).unwrap_or(0.0) as usize;
            if now > was {
                regressions.push(Regression {
                    section,
                    key: key.clone(),
                    now,
                    was,
                });
            }
        }
    }
    regressions
}

/// Render regressions as a per-rule delta table followed by the
/// offending keys — what the baseline gate prints on failure instead of
/// a raw JSON diff.
pub fn render_delta_table(regressions: &[Regression]) -> String {
    // Aggregate by (section, rule).
    let mut rows: Vec<(&'static str, String, usize, usize)> = Vec::new();
    for r in regressions {
        let rule = r.rule().to_string();
        match rows
            .iter_mut()
            .find(|(s, rl, _, _)| *s == r.section && *rl == rule)
        {
            Some((_, _, now, was)) => {
                *now += r.now;
                *was += r.was;
            }
            None => rows.push((r.section, rule, r.now, r.was)),
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<13} {:<22} {:>8} {:>8} {:>7}\n",
        "section", "rule", "baseline", "now", "delta"
    ));
    for (section, rule, now, was) in &rows {
        out.push_str(&format!(
            "  {:<13} {:<22} {:>8} {:>8} {:>+7}\n",
            section,
            rule,
            was,
            now,
            *now as i64 - *was as i64
        ));
    }
    for r in regressions {
        out.push_str(&format!(
            "    {} [{}]: {} (baseline {})\n",
            r.key, r.section, r.now, r.was
        ));
    }
    out
}

fn section_map<'a>(doc: &'a Value, section: &str) -> Option<&'a BTreeMap<String, Value>> {
    match doc.get(section) {
        Some(Value::Object(map)) => Some(map),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Rule};

    fn sample() -> WorkspaceReport {
        WorkspaceReport {
            files: vec![
                FileEntry {
                    rel: "crates/a/src/lib.rs".to_string(),
                    report: FileReport {
                        findings: vec![
                            Finding {
                                line: 3,
                                rule: Rule::Panic,
                                message: "`panic!` in non-test library code".to_string(),
                            },
                            Finding {
                                line: 9,
                                rule: Rule::Panic,
                                message: "`.unwrap()` in non-test library code".to_string(),
                            },
                        ],
                        suppressed: vec![("index", 2)],
                        allow_count: 2,
                        allows_by_rule: vec![("index", 2)],
                    },
                },
                FileEntry {
                    rel: "crates/b/src/lib.rs".to_string(),
                    report: FileReport::default(),
                },
            ],
        }
    }

    #[test]
    fn baseline_counts_by_file_and_rule() {
        let b = sample().baseline();
        assert_eq!(
            b.get("findings")
                .unwrap()
                .get("crates/a/src/lib.rs panic")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            b.get("suppressions")
                .unwrap()
                .get("crates/a/src/lib.rs index")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            b.get("directives")
                .unwrap()
                .get("crates/a/src/lib.rs index")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn identical_snapshots_pass_the_gate() {
        let b = sample().baseline();
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn new_findings_and_suppressions_fail_the_gate() {
        let base = sample().baseline();
        let mut worse = sample();
        worse.files[1].report.findings.push(Finding {
            line: 1,
            rule: Rule::Taint,
            message: "x".to_string(),
        });
        worse.files[1].report.suppressed = vec![("taint", 1)];
        worse.files[1].report.allow_count = 1;
        worse.files[1].report.allows_by_rule = vec![("taint", 1)];
        let regressions = compare(&worse.baseline(), &base);
        assert_eq!(regressions.len(), 3, "{regressions:?}");
        assert_eq!(regressions[0].section, "findings");
        assert_eq!(regressions[0].key, "crates/b/src/lib.rs taint");
        assert_eq!((regressions[0].now, regressions[0].was), (1, 0));
        assert_eq!(regressions[0].rule(), "taint");
        let table = render_delta_table(&regressions);
        assert!(table.contains("taint"), "{table}");
        assert!(table.contains("delta"), "{table}");
    }

    #[test]
    fn burning_down_counts_passes_the_gate() {
        let base = sample().baseline();
        let mut better = sample();
        better.files[0].report.findings.pop();
        better.files[0].report.suppressed = vec![("index", 1)];
        better.files[0].report.allow_count = 1;
        better.files[0].report.allows_by_rule = vec![("index", 1)];
        assert!(compare(&better.baseline(), &base).is_empty());
    }

    #[test]
    fn json_document_carries_diagnostics_and_counts() {
        let doc = sample().to_json();
        let diags = doc.get("diagnostics").unwrap().as_array().unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].get("rule").unwrap().as_str(), Some("panic"));
        assert_eq!(doc.get("files_scanned").unwrap().as_f64(), Some(2.0));
        // The document round-trips through the in-tree JSON parser.
        let text = doc.to_json();
        assert_eq!(primacy_trace::json::parse(&text).unwrap(), doc);
    }
}
