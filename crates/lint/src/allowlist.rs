//! The checked-in allowlist (`lint-allowlist.toml`) and inline waivers.
//!
//! Two suppression mechanisms, by design:
//!
//! * **Inline waiver** — a comment of the form `allow(<RULE>[, <RULE>...])
//!   -- <reason>` after the `pnet-tidy` marker, on the flagged line or on a
//!   comment-only line directly above it. For sites whose justification
//!   belongs next to the code.
//! * **Allowlist entry** — a `[[allow]]` table in `lint-allowlist.toml` with
//!   `rule`, `file`, optional `contains` (substring of the flagged line) and
//!   a mandatory `reason`. For legacy sites grandfathered in bulk. An entry
//!   that suppresses nothing is *stale* and is itself reported (rule `A1`),
//!   so the allowlist can only shrink over time.
//!
//! The parser below covers exactly the TOML subset the allowlist needs
//! (`[[allow]]` table arrays of string keys) — the linter stays
//! dependency-free.

use crate::lexer::Comment;
use crate::rules::{Finding, RULE_IDS};

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    /// Substring the flagged source line must contain ("" matches any).
    pub contains: String,
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in the TOML file.
    pub line: u32,
}

impl AllowEntry {
    /// Does this entry suppress `f`?
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && self.file == f.file
            && (self.contains.is_empty() || f.snippet.contains(&self.contains))
    }
}

/// Parse the allowlist. Returns the entries plus parse-error findings
/// (reported under rule `A1` so a broken allowlist cannot silently
/// suppress anything).
pub fn parse_allowlist(src: &str, path: &str) -> (Vec<AllowEntry>, Vec<Finding>) {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut errors: Vec<Finding> = Vec::new();
    let mut current: Option<AllowEntry> = None;
    let mut error = |line: u32, message: String, snippet: &str| {
        errors.push(Finding {
            rule: "A1",
            file: path.to_string(),
            line,
            col: 1,
            message,
            snippet: snippet.trim().to_string(),
            suppressed: None,
        });
    };
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = match raw.find('#') {
            // Strip comments, but not '#' inside quoted values.
            Some(pos) if raw[..pos].chars().filter(|&c| c == '"').count() % 2 == 1 => raw,
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            current = Some(AllowEntry {
                rule: String::new(),
                file: String::new(),
                contains: String::new(),
                reason: String::new(),
                line: lineno,
            });
            continue;
        }
        if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            let val = line[eq + 1..].trim();
            let Some(val) = val
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(unescape)
            else {
                error(
                    lineno,
                    format!("allowlist value for `{key}` must be a double-quoted string"),
                    raw,
                );
                continue;
            };
            let Some(e) = current.as_mut() else {
                error(
                    lineno,
                    "allowlist key outside an [[allow]] entry".to_string(),
                    raw,
                );
                continue;
            };
            match key {
                "rule" => e.rule = val,
                "file" => e.file = val,
                "contains" => e.contains = val,
                "reason" => e.reason = val,
                other => error(lineno, format!("unknown allowlist key `{other}`"), raw),
            }
            continue;
        }
        error(lineno, format!("unparseable allowlist line: `{line}`"), raw);
    }
    if let Some(e) = current.take() {
        entries.push(e);
    }
    for e in &entries {
        if !RULE_IDS.contains(&e.rule.as_str()) {
            error(
                e.line,
                format!("allowlist entry names unknown rule `{}`", e.rule),
                "",
            );
        }
        if e.file.is_empty() {
            error(e.line, "allowlist entry is missing `file`".to_string(), "");
        }
        if e.reason.is_empty() {
            error(
                e.line,
                "allowlist entry is missing `reason`".to_string(),
                "",
            );
        }
    }
    (entries, errors)
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// A parsed inline waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rules: Vec<String>,
    /// 1-based line the waiver comment sits on.
    pub line: u32,
}

/// Extract waivers from a file's comments. Malformed waiver comments (the
/// marker present but the shape wrong, or the reason missing) become `W1`
/// findings — a waiver that silently fails to parse must never silently
/// fail to suppress.
pub fn parse_waivers(
    comments: &[Comment],
    rel_path: &str,
    lines: &[&str],
) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("pnet-tidy:") else {
            continue;
        };
        let body = c.text[pos + "pnet-tidy:".len()..].trim();
        let snippet = lines
            .get(c.line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        let mut malformed = |message: String| {
            findings.push(Finding {
                rule: "W1",
                file: rel_path.to_string(),
                line: c.line,
                col: 1,
                message,
                snippet: snippet.clone(),
                suppressed: None,
            });
        };
        let Some(args) = body
            .strip_prefix("allow(")
            .and_then(|rest| rest.split_once(')'))
        else {
            malformed("waiver must look like `pnet-tidy: allow(<RULE>) -- <reason>`".to_string());
            continue;
        };
        let (rule_list, rest) = args;
        let Some(reason) = rest.trim().strip_prefix("--").map(str::trim) else {
            malformed("waiver is missing the `-- <reason>` part".to_string());
            continue;
        };
        if reason.is_empty() {
            malformed("waiver reason must not be empty".to_string());
            continue;
        }
        let rules: Vec<String> = rule_list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            malformed("waiver names no rules".to_string());
            continue;
        }
        if let Some(bad) = rules.iter().find(|r| !RULE_IDS.contains(&r.as_str())) {
            malformed(format!("waiver names unknown rule `{bad}`"));
            continue;
        }
        waivers.push(Waiver {
            rules,
            line: c.line,
        });
    }
    (waivers, findings)
}
