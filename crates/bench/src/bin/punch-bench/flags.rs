//! The one command-line parser: `--name VALUE` pairs, nothing else.

use std::str::FromStr;

/// The `--name VALUE` pairs of one invocation, all of them among the
/// names its experiment declares in `EXPERIMENTS`.
pub struct Flags {
    known: Vec<&'static str>,
    given: Vec<(String, String)>,
}

impl Flags {
    /// Rejects a flag outside `known` (a typo, another experiment's
    /// flag), a repeated flag and a flag without a value, so none of them
    /// can turn into a silent run of the defaults.
    pub fn parse(
        known: Vec<&'static str>,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let mut args = args.into_iter();
        let mut given: Vec<(String, String)> = Vec::new();
        while let Some(name) = args.next() {
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown flag {name} (takes: {})", known.join(" ")));
            }
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("{name} given twice"));
            }
            let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
            given.push((name, value));
        }
        Ok(Flags { known, given })
    }

    /// The parsed value of `name`, or `default` when the flag was not
    /// given. Reading a flag the experiment did not declare is an error
    /// on every run, so the declaration cannot fall behind the code.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        if !self.known.contains(&name) {
            return Err(format!("{name} is read but not declared in EXPERIMENTS"));
        }
        match self.given.iter().find(|(n, _)| n == name) {
            Some((_, raw)) => raw
                .parse()
                .map_err(|_| format!("{name}: cannot parse `{raw}`")),
            None => Ok(default),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        let known = vec!["--trials", "--seed", "--profile"];
        Flags::parse(known, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn known_flags_parse_and_defaults_fill_in() {
        let f = flags(&["--trials", "2", "--profile", "racing"]).unwrap();
        assert_eq!(f.get("--trials", 20u64), Ok(2));
        assert_eq!(f.get("--seed", 1u64), Ok(1));
        assert_eq!(
            f.get("--profile", "resilient".to_string()),
            Ok("racing".to_string())
        );
        assert!(f.get("--shards", 16u64).is_err(), "undeclared");
    }

    #[test]
    fn typos_bad_values_and_missing_values_are_errors() {
        // A typo must not run the full default silently.
        let err = flags(&["--trial", "2"]).err().unwrap();
        assert!(err.starts_with("unknown flag --trial "), "{err}");
        assert!(flags(&["--trials"]).is_err(), "missing value");
        assert!(flags(&["trials", "2"]).is_err(), "not a flag");
        assert!(flags(&["--seed", "1", "--seed", "2"]).is_err(), "repeated");
        let f = flags(&["--trials", "x"]).unwrap();
        assert!(f.get("--trials", 20u64).is_err(), "unparsable value");
    }
}
