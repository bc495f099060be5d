//! A small dependency-free flag parser: `--key value` and `--switch`.

use std::collections::HashMap;
use std::fmt;

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

/// A flag-parsing or validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Flags {
    /// Parses `--key value` pairs and bare `--switch`es. `keys` and
    /// `switches` are groups of the flag names a subcommand accepts,
    /// with and without a value; any other `--flag` is an error, so a
    /// misspelled key cannot silently fall back to its default.
    pub fn parse(
        args: &[String],
        keys: &[&[&str]],
        switches: &[&[&str]],
    ) -> Result<Flags, ArgError> {
        let known = |groups: &[&[&str]], key: &str| groups.iter().any(|g| g.contains(&key));
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected argument `{arg}`")));
            };
            if known(switches, key) {
                flags.switches.push(key.to_string());
            } else if known(keys, key) {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("--{key} needs a value")))?;
                flags.values.insert(key.to_string(), value.clone());
            } else {
                return Err(ArgError(format!("unknown flag --{key}")));
            }
        }
        Ok(flags)
    }

    /// True if the bare switch was given.
    #[must_use]
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// The raw value of `--key`, if given.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A parsed value of `--key`, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse `{v}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let f = Flags::parse(&args(&["--ms", "30", "--dram-hit"]), &[&["ms"]], &[&["dram-hit"]])
            .unwrap();
        assert_eq!(f.get("ms"), Some("30"));
        assert!(f.switch("dram-hit"));
        assert!(!f.switch("other"));
        assert_eq!(f.get_or("ms", 0u64).unwrap(), 30);
        assert_eq!(f.get_or("missing", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Flags::parse(&args(&["ms"]), &[&["ms"]], &[]).is_err());
        assert!(Flags::parse(&args(&["--ms"]), &[&["ms"]], &[]).is_err());
        let f = Flags::parse(&args(&["--ms", "abc"]), &[&["ms"]], &[]).unwrap();
        assert!(f.get_or("ms", 0u64).is_err());
    }

    #[test]
    fn rejects_unknown_keys() {
        let groups: &[&[&str]] = &[&["ms"], &["seed"]];
        let err = Flags::parse(&args(&["--ms", "2", "--sed", "3"]), groups, &[]).unwrap_err();
        assert_eq!(err, ArgError("unknown flag --sed".into()));
        // A switch name is not a value key, and vice versa.
        let err = Flags::parse(&args(&["--reads", "1"]), groups, &[]).unwrap_err();
        assert_eq!(err, ArgError("unknown flag --reads".into()));
        assert!(Flags::parse(&args(&["--seed"]), &[], &[&["reads"]]).is_err());
    }

    #[test]
    fn accepts_keys_from_any_group_with_switches() {
        let f = Flags::parse(
            &args(&["--seed", "3", "--reads", "--ms", "2"]),
            &[&["ms"], &["seed"]],
            &[&["gc-continuous"], &["reads"]],
        )
        .unwrap();
        assert_eq!(f.get_or("seed", 0u64).unwrap(), 3);
        assert_eq!(f.get_or("ms", 0u64).unwrap(), 2);
        assert!(f.switch("reads"));
        assert!(!f.switch("gc-continuous"));
    }
}
