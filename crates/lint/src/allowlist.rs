//! The audited exemption list (`lint_allow.toml`).
//!
//! A minimal, dependency-free TOML-subset parser: the file is a
//! sequence of `[[allow]]` tables with string-valued keys. Every entry
//! must carry a non-trivial `justification` — an exemption without a
//! reason is a config error (exit code 2), not a warning.
//!
//! ```toml
//! [[allow]]
//! rule = "LKK001"
//! path = "crates/trace/src/collector.rs"
//! contains = "Instant::now"          # optional excerpt filter
//! justification = "wall-clock epoch anchor used only in Wall timestamp mode"
//! ```

use crate::rules::{Finding, Rule};

/// One audited exemption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub rule: Rule,
    pub path: String,
    /// When set, the entry only matches findings whose source excerpt
    /// contains this substring (narrows a file-wide waiver to a site).
    pub contains: Option<String>,
    pub justification: String,
    /// 1-based line of the `[[allow]]` header (for diagnostics).
    pub line: usize,
}

impl Entry {
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && self.path == f.path
            && self
                .contains
                .as_ref()
                .is_none_or(|c| f.excerpt.contains(c.as_str()))
    }
}

/// A malformed allowlist is a hard error: silent exemptions are worse
/// than noisy findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint_allow.toml:{}: {}", self.line, self.message)
    }
}

/// Minimum length for a justification to count as written-by-a-human.
const MIN_JUSTIFICATION: usize = 15;

pub fn parse(text: &str) -> Result<Vec<Entry>, ParseError> {
    struct Draft {
        rule: Option<Rule>,
        path: Option<String>,
        contains: Option<String>,
        justification: Option<String>,
        line: usize,
    }
    let mut drafts: Vec<Draft> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        // Note: the '#'-split above is safe for this grammar only
        // because none of our string values may contain '#'.
        if raw.trim_start().starts_with('#') || line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            drafts.push(Draft {
                rule: None,
                path: None,
                contains: None,
                justification: None,
                line: lineno,
            });
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(ParseError {
                line: lineno,
                message: format!("expected `key = \"value\"` or `[[allow]]`, got `{line}`"),
            });
        };
        let key = line[..eq].trim();
        let val = line[eq + 1..].trim();
        let value = val
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| ParseError {
                line: lineno,
                message: format!("value for `{key}` must be a double-quoted string"),
            })?
            .to_string();
        let Some(draft) = drafts.last_mut() else {
            return Err(ParseError {
                line: lineno,
                message: "assignment before the first [[allow]] header".into(),
            });
        };
        match key {
            "rule" => {
                draft.rule = Some(Rule::from_id(&value).ok_or_else(|| ParseError {
                    line: lineno,
                    message: format!(
                        "unknown rule id `{value}` (known: LKK001..LKK006, LKK010, LKK011)"
                    ),
                })?)
            }
            "path" => draft.path = Some(value),
            "contains" => draft.contains = Some(value),
            "justification" => draft.justification = Some(value),
            other => {
                return Err(ParseError {
                    line: lineno,
                    message: format!(
                        "unknown key `{other}` (expected rule/path/contains/justification)"
                    ),
                })
            }
        }
    }
    let mut entries = Vec::new();
    for d in drafts {
        let rule = d.rule.ok_or(ParseError {
            line: d.line,
            message: "entry is missing `rule`".into(),
        })?;
        let path = d.path.filter(|p| !p.is_empty()).ok_or(ParseError {
            line: d.line,
            message: "entry is missing `path`".into(),
        })?;
        let justification = d.justification.unwrap_or_default();
        if justification.trim().len() < MIN_JUSTIFICATION {
            return Err(ParseError {
                line: d.line,
                message: format!(
                    "entry for {} at `{path}` needs a real justification \
                     (>= {MIN_JUSTIFICATION} chars explaining why the invariant does not apply)",
                    rule.id()
                ),
            });
        }
        entries.push(Entry {
            rule,
            path,
            contains: d.contains,
            justification,
            line: d.line,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches() {
        let entries = parse(
            r#"
# audited exemptions
[[allow]]
rule = "LKK001"
path = "crates/trace/src/collector.rs"
contains = "Instant::now"
justification = "wall-clock epoch anchor used only in Wall timestamp mode"
"#,
        )
        .unwrap();
        assert_eq!(entries.len(), 1);
        let f = Finding {
            path: "crates/trace/src/collector.rs".into(),
            line: 88,
            rule: Rule::Lkk001,
            excerpt: "let t0 = Instant::now();".into(),
            detail: String::new(),
        };
        assert!(entries[0].matches(&f));
        let other = Finding {
            excerpt: "let t0 = SystemTime::now();".into(),
            ..f
        };
        assert!(!entries[0].matches(&other));
    }

    #[test]
    fn rejects_missing_justification() {
        let err = parse("[[allow]]\nrule = \"LKK001\"\npath = \"src/a.rs\"\n").unwrap_err();
        assert!(err.message.contains("justification"), "{err}");
    }

    #[test]
    fn rejects_trivial_justification() {
        let err =
            parse("[[allow]]\nrule = \"LKK002\"\npath = \"src/a.rs\"\njustification = \"ok\"\n")
                .unwrap_err();
        assert!(err.message.contains("justification"), "{err}");
    }

    #[test]
    fn rejects_unknown_rule_and_key() {
        assert!(parse("[[allow]]\nrule = \"LKK009\"\n").is_err());
        assert!(parse("[[allow]]\nfoo = \"bar\"\n").is_err());
        assert!(parse("rule = \"LKK001\"\n").is_err());
    }
}
