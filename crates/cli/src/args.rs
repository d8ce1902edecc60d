//! Minimal `--flag value` argument parsing — deliberately dependency-free.

use std::collections::BTreeMap;

/// Parsed flags of one subcommand invocation.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `--key value` pairs and bare `--switch`es.
    ///
    /// # Errors
    ///
    /// Returns a message for a positional token where a flag was expected.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if name.is_empty() {
                return Err("empty flag `--`".to_string());
            }
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    flags.values.insert(name.to_string(), value);
                }
                _ => flags.switches.push(name.to_string()),
            }
        }
        Ok(flags)
    }

    /// String value of a flag.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Required string value.
    ///
    /// # Errors
    ///
    /// Message naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Parsed numeric value with a default.
    ///
    /// # Errors
    ///
    /// Message naming the unparseable flag.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
        }
    }

    /// Rejects every given flag that is not in `known`, naming each.
    ///
    /// # Errors
    ///
    /// Message naming `command` and each flag it does not take.
    pub fn reject_unknown(&self, command: &str, known: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<String> = self
            .values
            .keys()
            .chain(&self.switches)
            .filter(|name| !known.contains(&name.as_str()))
            .map(|name| format!("--{name}"))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort();
        Err(format!(
            "`{command}` does not take {} (see `vmtherm --help`)",
            unknown.join(", ")
        ))
    }

    /// Whether a bare switch was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Flags {
        Flags::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = parse(&["--cases", "50", "--grid", "--out", "x.txt"]);
        assert_eq!(f.get("cases"), Some("50"));
        assert_eq!(f.get("out"), Some("x.txt"));
        assert!(f.switch("grid"));
        assert!(!f.switch("fast"));
    }

    #[test]
    fn numeric_defaults_and_parsing() {
        let f = parse(&["--seed", "7"]);
        assert_eq!(f.num("seed", 0u64).unwrap(), 7);
        assert_eq!(f.num("cases", 100usize).unwrap(), 100);
        let bad = parse(&["--seed", "x7"]);
        assert!(bad.num("seed", 0u64).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let f = parse(&["--a", "1"]);
        assert!(f.require("a").is_ok());
        let err = f.require("out").unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn rejects_positional() {
        let err = Flags::parse(vec!["oops".to_string()]).unwrap_err();
        assert!(err.contains("positional"));
    }

    #[test]
    fn reject_unknown_names_every_stray_flag() {
        let f = parse(&["--seed", "7", "--secz", "60", "--fast"]);
        assert!(f.reject_unknown("x", &["seed", "secz", "fast"]).is_ok());
        let err = f.reject_unknown("x", &["seed"]).unwrap_err();
        assert!(err.contains("`x` does not take --fast, --secz"), "{err}");
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let f = parse(&["--offset", "-3.5"]);
        assert_eq!(f.get("offset"), Some("-3.5"));
    }
}
