//! Command-line parsing against a declared flag vocabulary (`--name value`
//! pairs and boolean `--switch`es; no external dependencies). A flag nobody
//! declared, a bare word and an unparsable value are all [`ArgError`]s.

use std::collections::HashMap;
use std::fmt;

/// One declared flag: `(flag, default, help)`. The default `"off"` declares a
/// boolean switch, which takes no value; an empty default declares a valued
/// flag that stays absent unless given.
pub type Param<'a> = (&'a str, &'a str, &'a str);

/// `--csv`, declared by every experiment.
pub const CSV: Param = ("csv", "off", "repeat every table as CSV");
/// `--seed`, where the default is the paper-run seed 1.
pub const SEED: Param = ("seed", "1", "seed of the random topologies and traffic");

/// What was wrong with a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgErrorKind {
    UnknownFlag(String),
    StrayWord(String),
    MissingValue(String),
    BadValue { flag: String, value: String },
}

/// A rejected command line, with the vocabulary it was checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    pub kind: ArgErrorKind,
    /// The declared flags and their defaults, one line.
    pub declared: String,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match &self.kind {
            ArgErrorKind::UnknownFlag(flag) => write!(f, "unknown flag --{flag}")?,
            ArgErrorKind::StrayWord(word) => write!(f, "stray argument {word:?}")?,
            ArgErrorKind::MissingValue(flag) => write!(f, "--{flag} needs a value")?,
            ArgErrorKind::BadValue { flag, value } => {
                write!(f, "bad value for --{flag}: {value:?}")?
            }
        }
        write!(f, "\ndeclared flags: {}", self.declared)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command-line arguments: every declared flag maps to its given
/// value, else its default (`"on"`/`"off"` for switches).
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
    declared: String,
}

impl Args {
    /// Check `items` against `params` and parse them.
    pub fn parse<I>(params: &[Param], items: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        let declared = params.iter().map(|&(flag, default, _)| match default {
            "off" => format!("[--{flag}]"),
            "" => format!("--{flag}"),
            _ => format!("--{flag} {default}"),
        });
        let mut args = Args {
            declared: declared.collect::<Vec<_>>().join(" "),
            values: HashMap::new(),
        };
        for &(flag, default, _) in params {
            args.values.insert(flag.to_string(), default.to_string());
        }
        let mut items = items.into_iter();
        while let Some(item) = items.next() {
            let Some(flag) = item.strip_prefix("--") else {
                return Err(args.error(ArgErrorKind::StrayWord(item)));
            };
            let value = match params.iter().find(|p| p.0 == flag) {
                None => return Err(args.error(ArgErrorKind::UnknownFlag(flag.to_string()))),
                Some(&(_, "off", _)) => "on".to_string(),
                Some(_) => match items.next() {
                    Some(v) if !v.starts_with("--") => v,
                    _ => return Err(args.error(ArgErrorKind::MissingValue(flag.to_string()))),
                },
            };
            args.values.insert(flag.to_string(), value);
        }
        Ok(args)
    }

    fn error(&self, kind: ArgErrorKind) -> ArgError {
        ArgError {
            kind,
            declared: self.declared.clone(),
        }
    }

    fn bad_value(&self, flag: &str, value: &str) -> ArgError {
        self.error(ArgErrorKind::BadValue {
            flag: flag.to_string(),
            value: value.to_string(),
        })
    }

    /// Raw value of `--key` (given or default); `None` when it has neither.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        let value = self
            .values
            .get(key)
            .unwrap_or_else(|| panic!("invariant: flag --{key} is read but not declared"));
        (!value.is_empty()).then_some(value.as_str())
    }

    /// Parsed value of `--key`; `None` when it was not given and has no default.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.get_str(key).map(|_| self.get(key)).transpose()
    }

    /// Parsed value of `--key`; absent only if declared without a default,
    /// which is then an error like any other bad value.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        self.get_with(key, |v| v.parse().ok())
    }

    /// Is the boolean switch `--key` present?
    pub fn has(&self, key: &str) -> bool {
        self.get_str(key) == Some("on")
    }

    /// `--key` through `parse`, for values `FromStr` does not cover
    /// ([`parse_size`], a trace name).
    pub fn get_with<T>(&self, key: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T, ArgError> {
        let v = self.get_str(key).unwrap_or_default();
        parse(v).ok_or_else(|| self.bad_value(key, v))
    }

    /// The comma-separated items of `--key`, each through `parse`.
    pub fn list_with<T>(
        &self,
        key: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, ArgError> {
        let list = self.get_str(key).unwrap_or_default();
        list.split(',')
            .map(|s| parse(s.trim()).ok_or_else(|| self.bad_value(key, list)))
            .collect()
    }
}

/// Parse sizes with k/m/g suffixes ("100k" = 100_000).
pub fn parse_size(s: &str) -> Option<u64> {
    let lower = s.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix('g') {
        (n, 1_000_000_000)
    } else if let Some(n) = lower.strip_suffix('m') {
        (n, 1_000_000)
    } else if let Some(n) = lower.strip_suffix('k') {
        (n, 1_000)
    } else {
        (lower.as_str(), 1)
    };
    let base: f64 = num.parse().ok().filter(|b| *b >= 0.0)?;
    Some((base * mult as f64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARAMS: &[Param] = &[
        ("k", "4", ""),
        SEED,
        ("sizes", "1", ""),
        ("other", "5,6", ""),
        ("out", "", ""),
        ("quick", "off", ""),
        CSV,
    ];

    fn args(s: &[&str]) -> Result<Args, ArgError> {
        Args::parse(PARAMS, s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_and_flags() {
        let a = args(&["--k", "16", "--csv", "--seed", "7"]).unwrap();
        assert_eq!(a.get::<usize>("k"), Ok(16));
        assert_eq!(a.get::<u64>("seed"), Ok(7));
        assert!(a.has("csv"));
        assert!(!a.has("quick"));
        assert_eq!(a.get_str("out"), None);
        assert_eq!(a.opt::<u64>("out"), Ok(None));
        assert_eq!(args(&[]).unwrap().get::<usize>("k"), Ok(4));
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("100k"), Some(100_000));
        assert_eq!(parse_size("1m"), Some(1_000_000));
        assert_eq!(parse_size("2.5m"), Some(2_500_000));
        assert_eq!(parse_size("1g"), Some(1_000_000_000));
        assert_eq!(parse_size("42"), Some(42));
        assert_eq!(parse_size("4x"), None);
        assert_eq!(parse_size("-1"), None);
    }

    #[test]
    fn lists() {
        let a = args(&["--sizes", "100k,1m,10m"]).unwrap();
        assert_eq!(
            a.list_with("sizes", parse_size),
            Ok(vec![100_000, 1_000_000, 10_000_000])
        );
        assert_eq!(a.list_with("other", parse_size), Ok(vec![5, 6]));
    }
}
