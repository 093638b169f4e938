//! A minimal, dependency-free command-line argument parser.
//!
//! Supports `--flag value`, `--flag=value`, boolean `--flag`, and
//! positional arguments. Typed access goes through [`Args::get`] /
//! [`Args::get_or`], which produce readable errors naming the flag.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// A parse or validation error, rendered for the end user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl From<String> for ArgError {
    fn from(message: String) -> Self {
        ArgError(message)
    }
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// `--key value` and `--key=value` set flags; a `--key` followed by
    /// another flag (or nothing) becomes the boolean value `"true"`;
    /// everything else is positional. Note the usual greedy-value
    /// ambiguity: a bare `--key` immediately followed by a positional
    /// token consumes it as the flag's value — write `--key=true` when a
    /// boolean flag must precede positionals.
    pub fn parse<I, S>(raw: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let raw: Vec<String> = raw.into_iter().map(Into::into).collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let token = &raw[i];
            if let Some(stripped) = token.strip_prefix("--") {
                if stripped.is_empty() {
                    return Err(ArgError("bare `--` is not supported".into()));
                }
                if let Some((key, value)) = stripped.split_once('=') {
                    args.flags.insert(key.to_string(), value.to_string());
                } else if i + 1 < raw.len() && !raw[i + 1].starts_with("--") {
                    args.flags.insert(stripped.to_string(), raw[i + 1].clone());
                    i += 1;
                } else {
                    args.flags.insert(stripped.to_string(), "true".to_string());
                }
            } else {
                args.positional.push(token.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    /// The positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether a flag was given at all.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// A flag's raw text, if given: the `name → text` lookup the cell
    /// parameter schemas (`ScenarioSpec::from_params`, ...) read.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Rejects a flag outside `lists` (the subcommand's schema `PARAMS`
    /// plus its own flags) in serve's wording, so a misspelled flag fails
    /// instead of leaving its default in place.
    pub fn check_names(&self, lists: &[&[&str]]) -> Result<(), ArgError> {
        let mut names: Vec<&str> = self.flags.keys().map(String::as_str).collect();
        names.sort_unstable();
        Ok(bvc_journal::check_param_names(names, lists)?)
    }

    /// A required typed flag.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        let raw = self
            .flags
            .get(key)
            .ok_or_else(|| ArgError(format!("missing required flag --{key}")))?;
        raw.parse().map_err(|e| ArgError(format!("invalid value {raw:?} for --{key}: {e}")))
    }

    /// An optional typed flag with a default.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        if self.has(key) {
            self.get(key)
        } else {
            Ok(default)
        }
    }
}

/// Parses a comma-separated list of floats such as `0.2,0.3,0.5`.
pub fn parse_f64_list(raw: &str) -> Result<Vec<f64>, ArgError> {
    raw.split(',')
        .map(|p| {
            p.trim()
                .parse::<f64>()
                .map_err(|_| ArgError(format!("invalid number {p:?} in list {raw:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["solve", "extra", "--alpha", "0.2", "--setting=2", "--verbose"]);
        assert_eq!(a.positional(), &["solve", "extra"]);
        assert_eq!(a.get::<f64>("alpha").unwrap(), 0.2);
        assert_eq!(a.get::<u8>("setting").unwrap(), 2);
        assert!(a.get::<bool>("verbose").unwrap());
        assert!(!a.has("quiet"));
    }

    /// The documented greedy-value behaviour: a bare flag swallows a
    /// following positional; `--flag=true` avoids it.
    #[test]
    fn greedy_value_consumption() {
        let a = parse(&["--verbose", "extra"]);
        assert_eq!(a.get::<String>("verbose").unwrap(), "extra");
        assert!(a.positional().is_empty());
        let a = parse(&["--verbose=true", "extra"]);
        assert!(a.get::<bool>("verbose").unwrap());
        assert_eq!(a.positional(), &["extra"]);
    }

    #[test]
    fn missing_and_invalid_flags_error() {
        let a = parse(&["--alpha", "zero"]);
        assert!(a.get::<f64>("alpha").unwrap_err().0.contains("invalid value"));
        assert!(a.get::<f64>("beta").unwrap_err().0.contains("missing required"));
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.get_or("ad", 6u8).unwrap(), 6);
        let a = parse(&["--ad", "12"]);
        assert_eq!(a.get_or("ad", 6u8).unwrap(), 12);
    }

    #[test]
    fn boolean_flag_before_another_flag() {
        let a = parse(&["--sticky", "--alpha", "0.1"]);
        assert!(a.get::<bool>("sticky").unwrap());
        assert_eq!(a.get::<f64>("alpha").unwrap(), 0.1);
    }

    #[test]
    fn float_list_parsing() {
        assert_eq!(parse_f64_list("0.2, 0.3,0.5").unwrap(), vec![0.2, 0.3, 0.5]);
        assert!(parse_f64_list("0.2,x").is_err());
    }
}
