//! Baseline comparison: flatten two documents and name every leaf that
//! differs. The gate itself is a byte comparison (`perf-smoke --check`);
//! this is what a failure prints so the drift reads as section + key
//! instead of a bare `cmp`.

use lkk_trace::json::Value;
use std::collections::BTreeMap;

/// One detected difference between baseline and current document.
#[derive(Debug, Clone, PartialEq)]
pub enum Drift {
    /// Path exists in the baseline but not the current document.
    Missing(String),
    /// Path exists in the current document but not the baseline.
    Extra(String),
    /// A scalar changed (numbers compare by bit pattern).
    Changed {
        path: String,
        baseline: Value,
        current: Value,
    },
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let scalar = |v: &Value| v.to_pretty().trim_end().to_string();
        match self {
            Drift::Missing(p) => write!(f, "{p}: missing from the current run"),
            Drift::Extra(p) => write!(f, "{p}: not in the baseline"),
            Drift::Changed {
                path,
                baseline,
                current,
            } => write!(f, "{path}: {} -> {}", scalar(baseline), scalar(current)),
        }
    }
}

/// Components of a run-document path that name the section
/// (`workloads.<name>.<section>`); the rest is the key inside it.
const SECTION_DEPTH: usize = 3;

/// Flatten to `path → scalar` pairs. The section components join with
/// `.` and are set off from the key by `: `; the key's own components
/// join with `.` too (kernel and metric names contain dots, so the key
/// is for reading, not for splitting).
fn flatten(v: &Value, prefix: String, depth: usize, out: &mut Vec<(String, Value)>) {
    let join = |part: &str| match (prefix.is_empty(), depth == SECTION_DEPTH) {
        (true, _) => part.to_string(),
        (false, true) => format!("{prefix}: {part}"),
        (false, false) => format!("{prefix}.{part}"),
    };
    match v {
        Value::Obj(entries) => {
            for (k, child) in entries {
                flatten(child, join(k), depth + 1, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(child, join(&i.to_string()), depth + 1, out);
            }
        }
        scalar => out.push((prefix, scalar.clone())),
    }
}

/// Every leaf of `current` that is not bit-identical in `baseline`, and
/// every leaf only one side has. Key order does not matter.
pub fn compare(baseline: &Value, current: &Value) -> Vec<Drift> {
    let (mut base, mut cur) = (Vec::new(), Vec::new());
    flatten(baseline, String::new(), 0, &mut base);
    flatten(current, String::new(), 0, &mut cur);
    let cur_map: BTreeMap<&str, &Value> = cur.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let base_map: BTreeMap<&str, &Value> = base.iter().map(|(k, v)| (k.as_str(), v)).collect();

    let mut drifts = Vec::new();
    for (path, bval) in &base {
        match cur_map.get(path.as_str()) {
            None => drifts.push(Drift::Missing(path.clone())),
            Some(cval) => {
                let same = match (bval, cval) {
                    (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
                    (a, b) => a == *b,
                };
                if !same {
                    drifts.push(Drift::Changed {
                        path: path.clone(),
                        baseline: bval.clone(),
                        current: (*cval).clone(),
                    });
                }
            }
        }
    }
    for (path, _) in &cur {
        if !base_map.contains_key(path.as_str()) {
            drifts.push(Drift::Extra(path.clone()));
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_trace::json::parse;

    #[test]
    fn identical_documents_have_no_drift() {
        let a = parse(r#"{"x": 1.5, "y": {"z": [1, 2]}}"#).unwrap();
        assert!(compare(&a, &a).is_empty());
        let reordered = parse(r#"{"y": {"z": [1, 2]}, "x": 1.5}"#).unwrap();
        assert!(compare(&a, &reordered).is_empty());
    }

    #[test]
    fn numbers_compare_by_bits() {
        let a = parse(r#"{"x": 100.0, "z": 0}"#).unwrap();
        let b = parse(r#"{"x": 100.00000000000001, "z": -0}"#).unwrap();
        assert_eq!(compare(&a, &b).len(), 2);
    }

    #[test]
    fn missing_and_extra_keys_are_reported() {
        let a = parse(r#"{"x": 1, "gone": 2}"#).unwrap();
        let b = parse(r#"{"x": 1, "new": 3}"#).unwrap();
        let d = compare(&a, &b);
        assert!(d
            .iter()
            .any(|x| matches!(x, Drift::Missing(p) if p == "gone")));
        assert!(d.iter().any(|x| matches!(x, Drift::Extra(p) if p == "new")));
    }

    #[test]
    fn drift_names_section_then_key() {
        let a =
            parse(r#"{"workloads": {"lj": {"counters": {"kernels": {"a.b@c": "mem"}}}}}"#).unwrap();
        let b = parse(r#"{"workloads": {"lj": {"counters": {"kernels": {"a.b@c": "comp"}}}}}"#)
            .unwrap();
        let d = compare(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(
            d[0].to_string(),
            "workloads.lj.counters: kernels.a.b@c: \"mem\" -> \"comp\""
        );
    }
}
