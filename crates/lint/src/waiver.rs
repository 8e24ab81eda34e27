//! Inline waivers, the one way to suppress a `pnet-tidy` finding: a comment
//! of the form `allow(<RULE>[, <RULE>...]) -- <reason>` after the
//! `pnet-tidy` marker, on the flagged line or on a comment-only line
//! directly above it, so the justification sits next to the code.

use crate::lexer::Comment;
use crate::rules::{Finding, RULE_IDS};

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
