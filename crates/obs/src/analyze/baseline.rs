//! Perf-baseline regression gate: compares a fresh `metrics-v1` snapshot
//! against a committed baseline (`BENCH_<name>.json`) under per-metric
//! tolerance rules.
//!
//! The simulator is deterministic — every cycle-domain counter, gauge and
//! histogram must reproduce **exactly** — so the default rule set is
//! `Exact` for everything except wall-clock throughput metrics
//! (`*macs_per_s`, `*speedup*`), which get relative tolerances, and
//! environment facts (`threads`), which are ignored.

use std::fmt;

use crate::metrics::MetricsSnapshot;

/// How one metric is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleKind {
    /// Baseline and fresh value must be identical.
    Exact,
    /// Relative tolerance: with `higher_is_better`, fail when
    /// `fresh < baseline · (1 − tol)`; otherwise fail when
    /// `fresh > baseline · (1 + tol)`. Drift in the good direction never
    /// fails.
    RelTol {
        /// Allowed relative drift in the bad direction.
        tol: f64,
        /// Whether larger values are better.
        higher_is_better: bool,
    },
    /// Not compared at all (environment facts).
    Ignore,
}

/// A `(pattern, rule)` pair. Patterns are glob-lite: `*` matches any
/// substring (including empty), everything else is literal. The first
/// matching rule in the list wins.
#[derive(Debug, Clone)]
pub struct GateRule {
    /// Glob-lite pattern over flattened metric keys.
    pub pattern: String,
    /// Comparison rule for matching keys.
    pub kind: RuleKind,
}

impl GateRule {
    /// Builds a rule.
    #[must_use]
    pub fn new(pattern: impl Into<String>, kind: RuleKind) -> Self {
        Self { pattern: pattern.into(), kind }
    }
}

/// Glob-lite match: `*` is the only metacharacter, matching any substring.
#[must_use]
pub fn glob_match(pattern: &str, key: &str) -> bool {
    let mut parts = pattern.split('*');
    let first = parts.next().unwrap_or("");
    if !key.starts_with(first) {
        return false;
    }
    let mut rest = &key[first.len()..];
    let mut parts = parts.peekable();
    while let Some(part) = parts.next() {
        if parts.peek().is_none() {
            // Last segment must anchor at the end.
            return rest.ends_with(part);
        }
        match rest.find(part) {
            Some(i) => rest = &rest[i + part.len()..],
            None => return false,
        }
    }
    // Pattern had no '*' at all: exact match required.
    rest.is_empty()
}

/// The default rule set for this repo's bench snapshots (see module doc).
#[must_use]
pub fn default_rules() -> Vec<GateRule> {
    vec![
        GateRule::new("counters.threads", RuleKind::Ignore),
        GateRule::new("gauges.*macs_per_s", RuleKind::RelTol { tol: 0.45, higher_is_better: true }),
        GateRule::new("gauges.*speedup*", RuleKind::RelTol { tol: 0.35, higher_is_better: true }),
        GateRule::new("*", RuleKind::Exact),
    ]
}

/// A flattened metric value: counters and histogram integer facets stay
/// in the integer domain so `Exact` never suffers float rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    Int(u128),
    Num(f64),
}

impl Val {
    fn as_f64(self) -> f64 {
        match self {
            Val::Int(v) => v as f64,
            Val::Num(v) => v,
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(v) => write!(f, "{v}"),
            Val::Num(v) => write!(f, "{v}"),
        }
    }
}

/// Flattens a snapshot to comparable scalars: `counters.<k>`,
/// `gauges.<k>`, and `histograms.<k>.{count,sum,min,max}` (the exact
/// facets; derived percentiles are not re-compared).
fn flatten(snap: &MetricsSnapshot) -> Vec<(String, Val)> {
    let mut out = Vec::new();
    for (k, v) in snap.metrics.counters() {
        out.push((format!("counters.{k}"), Val::Int(u128::from(v))));
    }
    for (k, v) in snap.metrics.gauges() {
        out.push((format!("gauges.{k}"), Val::Num(v)));
    }
    for (k, h) in snap.metrics.histograms() {
        out.push((format!("histograms.{k}.count"), Val::Int(u128::from(h.count()))));
        out.push((format!("histograms.{k}.sum"), Val::Int(h.sum())));
        out.push((format!("histograms.{k}.min"), Val::Int(u128::from(h.min()))));
        out.push((format!("histograms.{k}.max"), Val::Int(u128::from(h.max()))));
    }
    out
}

/// One compared metric's verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Identical (or within tolerance).
    Ok,
    /// Within tolerance but not identical (tolerant rules only).
    Drift,
    /// Outside tolerance, or an exact metric changed.
    Regressed,
    /// Present in the baseline, absent from the fresh run.
    Missing,
    /// Absent from the baseline (new metric — informational).
    New,
    /// Matched an `Ignore` rule.
    Ignored,
}

/// One flattened metric's comparison.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Flattened key (`counters.…`, `gauges.…`, `histograms.….max`).
    pub key: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable `baseline → fresh` detail.
    pub detail: String,
}

/// The gate's overall result.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Snapshot name (from the baseline).
    pub name: String,
    /// Every non-`Ok` finding, plus one `Ok` count in `compared`.
    pub findings: Vec<Finding>,
    /// Metrics compared (excluding ignored).
    pub compared: usize,
    /// Count of `Regressed` + `Missing` findings.
    pub regressions: usize,
    /// `regressions == 0`.
    pub passed: bool,
}

impl GateReport {
    /// Renders a human-readable report, one line per non-`Ok` finding.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "gate {}: {} compared, {} regression(s) — {}\n",
            self.name,
            self.compared,
            self.regressions,
            if self.passed { "PASS" } else { "FAIL" }
        ));
        for f in &self.findings {
            if f.verdict == Verdict::Ignored {
                continue;
            }
            out.push_str(&format!("  [{:?}] {}: {}\n", f.verdict, f.key, f.detail));
        }
        out
    }
}

fn rule_for<'r>(rules: &'r [GateRule], key: &str) -> Option<&'r GateRule> {
    rules.iter().find(|r| glob_match(&r.pattern, key))
}

/// Compares `fresh` against `baseline` under `rules` (first match wins;
/// unmatched keys are compared exactly).
#[must_use]
pub fn compare(
    baseline: &MetricsSnapshot,
    fresh: &MetricsSnapshot,
    rules: &[GateRule],
) -> GateReport {
    let base = flatten(baseline);
    let new = flatten(fresh);
    let mut findings = Vec::new();
    let mut compared = 0usize;
    let mut regressions = 0usize;

    let new_map: std::collections::BTreeMap<&str, Val> =
        new.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_map: std::collections::BTreeMap<&str, Val> =
        base.iter().map(|(k, v)| (k.as_str(), *v)).collect();

    for (key, bval) in &base {
        let kind = rule_for(rules, key).map_or(RuleKind::Exact, |r| r.kind);
        if kind == RuleKind::Ignore {
            findings.push(Finding {
                key: key.clone(),
                verdict: Verdict::Ignored,
                detail: "ignored".into(),
            });
            continue;
        }
        compared += 1;
        let Some(fval) = new_map.get(key.as_str()) else {
            regressions += 1;
            findings.push(Finding {
                key: key.clone(),
                verdict: Verdict::Missing,
                detail: format!("baseline {bval}, fresh run did not report it"),
            });
            continue;
        };
        match kind {
            RuleKind::Exact => {
                if bval != fval {
                    regressions += 1;
                    findings.push(Finding {
                        key: key.clone(),
                        verdict: Verdict::Regressed,
                        detail: format!("exact metric changed: {bval} → {fval}"),
                    });
                }
            }
            RuleKind::RelTol { tol, higher_is_better } => {
                let b = bval.as_f64();
                let f = fval.as_f64();
                let bad = if higher_is_better { f < b * (1.0 - tol) } else { f > b * (1.0 + tol) };
                if bad {
                    regressions += 1;
                    findings.push(Finding {
                        key: key.clone(),
                        verdict: Verdict::Regressed,
                        detail: format!(
                            "{b} → {f} ({:+.1}%, tolerance ±{:.0}%)",
                            (f - b) / b * 100.0,
                            tol * 100.0
                        ),
                    });
                } else if (f - b).abs() > f64::EPSILON * b.abs() {
                    findings.push(Finding {
                        key: key.clone(),
                        verdict: Verdict::Drift,
                        detail: format!("{b} → {f} ({:+.1}%)", (f - b) / b * 100.0),
                    });
                }
            }
            RuleKind::Ignore => unreachable!("handled above"),
        }
    }
    for (key, fval) in &new {
        if !base_map.contains_key(key.as_str())
            && rule_for(rules, key).map_or(RuleKind::Exact, |r| r.kind) != RuleKind::Ignore
        {
            findings.push(Finding {
                key: key.clone(),
                verdict: Verdict::New,
                detail: format!("new metric (fresh {fval}), not in baseline"),
            });
        }
    }

    GateReport {
        name: baseline.name.clone(),
        findings,
        compared,
        regressions,
        passed: regressions == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn snap(name: &str, f: impl FnOnce(&mut Metrics)) -> MetricsSnapshot {
        let mut m = Metrics::new();
        f(&mut m);
        MetricsSnapshot::new(name, m)
    }

    #[test]
    fn glob_lite_semantics() {
        assert!(glob_match("*", "anything.at.all"));
        assert!(glob_match("gauges.*macs_per_s", "gauges.fe.fast_1t_macs_per_s"));
        assert!(!glob_match("gauges.*macs_per_s", "gauges.fe.macs"));
        assert!(glob_match("counters.threads", "counters.threads"));
        assert!(!glob_match("counters.threads", "counters.threads2"));
        assert!(glob_match("a*b*c", "aXbYc"));
        assert!(!glob_match("a*b*c", "aXcYb"));
    }

    #[test]
    fn exact_rule_flags_any_change() {
        let base = snap("t", |m| {
            m.inc("jobs", 10);
            m.observe("lat", 100);
        });
        let fresh = snap("t", |m| {
            m.inc("jobs", 11);
            m.observe("lat", 100);
        });
        let report = compare(&base, &fresh, &default_rules());
        assert!(!report.passed);
        assert_eq!(report.regressions, 1);
        assert!(report.findings.iter().any(|f| f.key == "counters.jobs"));
        // Histogram facets compared exactly and matched.
        assert!(report.render().contains("FAIL"));

        let same = compare(&base, &base.clone(), &default_rules());
        assert!(same.passed);
    }

    #[test]
    fn reltol_allows_drift_catches_slowdown() {
        let base = snap("t", |m| m.set_gauge("fe.fast_1t_macs_per_s", 1.0e9));
        let ok = snap("t", |m| m.set_gauge("fe.fast_1t_macs_per_s", 0.6e9));
        let bad = snap("t", |m| m.set_gauge("fe.fast_1t_macs_per_s", 0.5e9));
        let faster = snap("t", |m| m.set_gauge("fe.fast_1t_macs_per_s", 3.0e9));
        let rules = default_rules();
        assert!(compare(&base, &ok, &rules).passed, "-40% within 45% tolerance");
        assert!(!compare(&base, &bad, &rules).passed, "2x slowdown must fail");
        assert!(compare(&base, &faster, &rules).passed, "speedups never fail");
    }

    #[test]
    fn missing_fails_new_informs_ignored_skips() {
        let base = snap("t", |m| {
            m.inc("gone", 1);
            m.inc("threads", 8);
        });
        let fresh = snap("t", |m| {
            m.inc("arrived", 2);
            m.inc("threads", 1);
        });
        let report = compare(&base, &fresh, &default_rules());
        assert!(!report.passed, "missing baseline metric is a regression");
        assert_eq!(report.regressions, 1);
        let verdict = |k: &str| {
            report.findings.iter().find(|f| f.key.ends_with(k)).map(|f| f.verdict.clone())
        };
        assert_eq!(verdict("gone"), Some(Verdict::Missing));
        assert_eq!(verdict("arrived"), Some(Verdict::New));
        assert_eq!(verdict("threads"), Some(Verdict::Ignored), "threads never compared");
    }
}
