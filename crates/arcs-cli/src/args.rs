//! A small, dependency-free command-line argument parser.
//!
//! Supports `--flag value`, `--flag=value`, boolean `--flag`, and
//! positional arguments; unknown flags are reported as errors so typos
//! fail loudly instead of silently using defaults.

use std::collections::BTreeMap;

/// Parsed arguments: positionals in order plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--flag` requires a value but none followed.
    MissingValue(String),
    /// A flag the command does not accept.
    Unknown(String),
    /// A value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
    },
    /// A required option was not supplied.
    Required(String),
    /// A positive-integer flag was given zero.
    NotPositive(String),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingValue(flag) => write!(f, "flag --{flag} requires a value"),
            ArgsError::Unknown(flag) => write!(f, "unknown flag --{flag}"),
            ArgsError::BadValue { flag, value } => {
                write!(f, "invalid value `{value}` for --{flag}")
            }
            ArgsError::Required(flag) => write!(f, "missing required flag --{flag}"),
            ArgsError::NotPositive(flag) => write!(f, "--{flag} must be > 0"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// The flags one command accepts, declared beside its usage text.
#[derive(Debug, Clone, Copy)]
pub struct Flags {
    /// Flags that take a value (`--flag value` or `--flag=value`).
    pub values: &'static [&'static str],
    /// Valueless switches.
    pub switches: &'static [&'static str],
}

impl Flags {
    /// Parses a command's arguments against these flags ([`Args::parse`]).
    pub fn parse(&self, argv: &[String]) -> Result<Args, ArgsError> {
        Args::parse(argv.iter().cloned(), self.values, self.switches)
    }
}

impl Args {
    /// Parses raw arguments. `value_flags` lists flags that take a value;
    /// `bool_flags` lists valueless switches. Anything else starting with
    /// `--` is an error.
    pub fn parse<I, S>(raw: I, value_flags: &[&str], bool_flags: &[&str]) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    if !value_flags.contains(&key) {
                        return Err(ArgsError::Unknown(key.to_string()));
                    }
                    args.options.insert(key.to_string(), value.to_string());
                } else if value_flags.contains(&name) {
                    let value =
                        iter.next().ok_or_else(|| ArgsError::MissingValue(name.to_string()))?;
                    args.options.insert(name.to_string(), value);
                } else if bool_flags.contains(&name) {
                    args.flags.push(name.to_string());
                } else {
                    return Err(ArgsError::Unknown(name.to_string()));
                }
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    /// The positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// An optional string-valued flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(String::as_str)
    }

    /// A required string-valued flag.
    pub fn require(&self, flag: &str) -> Result<&str, ArgsError> {
        self.get(flag).ok_or_else(|| ArgsError::Required(flag.to_string()))
    }

    /// A typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgsError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgsError::BadValue {
                flag: flag.to_string(),
                value: raw.to_string(),
            }),
        }
    }

    /// An optional positive-integer flag: `None` when absent; zero, like
    /// a value that does not parse, is an error.
    pub fn positive(&self, flag: &str) -> Result<Option<usize>, ArgsError> {
        if self.get(flag).is_none() {
            return Ok(None);
        }
        match self.get_or(flag, 0)? {
            0 => Err(ArgsError::NotPositive(flag.to_string())),
            value => Ok(Some(value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_styles() {
        let args =
            Args::parse(["input.csv", "--n", "100", "--seed=7", "--csv"], &["n", "seed"], &["csv"])
                .unwrap();
        assert_eq!(args.positional(), ["input.csv"]);
        assert_eq!(args.get("n"), Some("100"));
        assert_eq!(args.get("seed"), Some("7"));
        assert!(args.has("csv"));
        assert!(!args.has("quiet"));
        assert_eq!(args.get_or("n", 0usize).unwrap(), 100);
        assert_eq!(args.get_or("missing", 5usize).unwrap(), 5);
    }

    #[test]
    fn rejects_unknown_flags() {
        let err = Args::parse(["--nope"], &["n"], &["csv"]).unwrap_err();
        assert_eq!(err, ArgsError::Unknown("nope".into()));
        let err = Args::parse(["--nope=3"], &["n"], &[]).unwrap_err();
        assert_eq!(err, ArgsError::Unknown("nope".into()));
    }

    #[test]
    fn rejects_missing_values() {
        let err = Args::parse(["--n"], &["n"], &[]).unwrap_err();
        assert_eq!(err, ArgsError::MissingValue("n".into()));
    }

    #[test]
    fn typed_parse_errors() {
        let args = Args::parse(["--n", "abc"], &["n"], &[]).unwrap();
        assert!(matches!(args.get_or("n", 0usize), Err(ArgsError::BadValue { .. })));
    }

    #[test]
    fn required_flags() {
        let args = Args::parse(["--x", "cats"], &["x"], &[]).unwrap();
        assert_eq!(args.require("x").unwrap(), "cats");
        assert!(matches!(args.require("y"), Err(ArgsError::Required(_))));
    }
}
