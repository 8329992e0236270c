//! A small, dependency-free command-line argument parser.
//!
//! Supports `--key value`, `--key=value` and boolean `--flag` options
//! after a positional subcommand, with typed accessors and precise error
//! messages. The options each subcommand accepts are the ones its block
//! of the usage text names; any other option is an error.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a subcommand, an optional action positional
/// (e.g. `temspc store list`), plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    subcommand: Option<String>,
    action: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// An option was given without a value.
    MissingValue(String),
    /// A value could not be parsed as the requested type.
    BadValue {
        /// Option name.
        option: String,
        /// Provided value.
        value: String,
        /// Target type name.
        ty: &'static str,
    },
    /// A positional argument appeared after options.
    UnexpectedPositional(String),
    /// A required option was absent.
    Required(String),
    /// An option that the subcommand's usage block does not name.
    UnknownOption(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(o) => write!(f, "option --{o} requires a value"),
            ArgsError::BadValue { option, value, ty } => {
                write!(f, "option --{option}: '{value}' is not a valid {ty}")
            }
            ArgsError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
            ArgsError::Required(o) => write!(f, "missing required option --{o}"),
            ArgsError::UnknownOption(o) => write!(f, "unknown option --{o}"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// Option names that do not take a value.
const BOOLEAN_FLAGS: &[&str] = &["no-noise", "resume", "digest"];

/// One `temspc <subcommand> [actions]` block of a usage text: the
/// actions it covers (`list|calibrate|evict`; none for a plain
/// subcommand) and every `--option` it names.
#[derive(Debug)]
pub struct UsageBlock<'a> {
    /// The subcommand word.
    pub subcommand: &'a str,
    /// The actions the block covers; empty when it takes none.
    pub actions: Vec<&'a str>,
    /// The option names, without the leading `--`.
    pub options: Vec<&'a str>,
}

/// Splits the `USAGE:` section of a usage text into its command blocks.
/// A block starts at a `temspc <subcommand>` line and takes in the
/// indented lines below it; the section ends at its first blank line.
pub fn usage_blocks(usage: &str) -> Vec<UsageBlock<'_>> {
    let mut blocks: Vec<UsageBlock<'_>> = Vec::new();
    let section = usage
        .lines()
        .skip_while(|line| line.trim() != "USAGE:")
        .skip(1)
        .take_while(|line| !line.trim().is_empty());
    for line in section {
        if let Some(rest) = line.trim().strip_prefix("temspc ") {
            let mut words = rest.split_whitespace();
            blocks.push(UsageBlock {
                subcommand: words.next().unwrap_or_default(),
                actions: words
                    .next()
                    .filter(|w| !w.starts_with(['[', '-']))
                    .map_or_else(Vec::new, |w| w.split('|').collect()),
                options: Vec::new(),
            });
        }
        if let Some(block) = blocks.last_mut() {
            block.options.extend(line.split("--").skip(1).map(|tail| {
                let end = tail
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(tail.len());
                &tail[..end]
            }));
        }
    }
    blocks
}

impl ParsedArgs {
    /// Parses a raw argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] for malformed input.
    pub fn parse<I, S>(args: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = ParsedArgs::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(stripped) = arg.strip_prefix("--") {
                if let Some((key, value)) = stripped.split_once('=') {
                    parsed.options.insert(key.to_string(), value.to_string());
                } else if BOOLEAN_FLAGS.contains(&stripped) {
                    parsed.flags.push(stripped.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgsError::MissingValue(stripped.to_string()))?;
                    parsed.options.insert(stripped.to_string(), value);
                }
            } else if parsed.subcommand.is_none() {
                parsed.subcommand = Some(arg);
            } else if parsed.action.is_none() {
                parsed.action = Some(arg);
            } else {
                return Err(ArgsError::UnexpectedPositional(arg));
            }
        }
        Ok(parsed)
    }

    /// The subcommand, if any.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// The second positional (the action of `temspc store <action>`).
    pub fn action(&self) -> Option<&str> {
        self.action.as_deref()
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Required`] when absent.
    pub fn require(&self, key: &str) -> Result<&str, ArgsError> {
        self.get(key).ok_or_else(|| ArgsError::Required(key.into()))
    }

    /// Typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] if present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgsError::BadValue {
                option: key.to_string(),
                value: raw.to_string(),
                ty: std::any::type_name::<T>(),
            }),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Checks every given option against the usage block(s) of this
    /// subcommand and action; no subcommand means `help`. A command line
    /// that matches no block passes, so that dispatch can name the
    /// unknown subcommand or action instead.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::UnknownOption`] for the first option that no
    /// matching block names.
    pub fn reject_unknown(&self, usage: &str) -> Result<(), ArgsError> {
        let subcommand = self.subcommand().unwrap_or("help");
        let blocks: Vec<UsageBlock<'_>> = usage_blocks(usage)
            .into_iter()
            .filter(|b| b.subcommand == subcommand)
            .filter(|b| {
                b.actions.is_empty() || self.action().is_none_or(|a| b.actions.contains(&a))
            })
            .collect();
        if blocks.is_empty() {
            return Ok(());
        }
        match self
            .options
            .keys()
            .chain(&self.flags)
            .find(|given| !blocks.iter().any(|b| b.options.contains(&given.as_str())))
        {
            Some(unknown) => Err(ArgsError::UnknownOption(unknown.clone())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_options() {
        let a = ParsedArgs::parse(["simulate", "--hours", "4", "--idv=6", "--no-noise"]).unwrap();
        assert_eq!(a.subcommand(), Some("simulate"));
        assert_eq!(a.get("hours"), Some("4"));
        assert_eq!(a.get("idv"), Some("6"));
        assert!(a.flag("no-noise"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.action(), None);
    }

    #[test]
    fn parses_store_style_action_positional() {
        let a = ParsedArgs::parse(["store", "list", "--dir", "models"]).unwrap();
        assert_eq!(a.subcommand(), Some("store"));
        assert_eq!(a.action(), Some("list"));
        assert_eq!(a.get("dir"), Some("models"));
    }

    #[test]
    fn typed_accessors() {
        let a = ParsedArgs::parse(["x", "--hours", "2.5", "--seed", "42"]).unwrap();
        assert_eq!(a.get_parsed("hours", 1.0).unwrap(), 2.5);
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 42);
        assert_eq!(a.get_parsed("missing", 7i32).unwrap(), 7);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            ParsedArgs::parse(["x", "--hours"]).unwrap_err(),
            ArgsError::MissingValue("hours".into())
        );
        let a = ParsedArgs::parse(["x", "--hours", "abc"]).unwrap();
        assert!(matches!(
            a.get_parsed("hours", 0.0f64),
            Err(ArgsError::BadValue { .. })
        ));
        assert_eq!(
            ParsedArgs::parse(["x", "y", "z"]).unwrap_err(),
            ArgsError::UnexpectedPositional("z".into())
        );
        let a = ParsedArgs::parse(["x"]).unwrap();
        assert_eq!(
            a.require("out").unwrap_err(),
            ArgsError::Required("out".into())
        );
    }

    #[test]
    fn usage_blocks_allow_only_the_options_they_name() {
        let usage = r"demo

USAGE:
  temspc run   [--hours 4] [--no-noise]
               --out x [--seed-stride 1]
  temspc store list|evict --dir d
  temspc help

NOTES: --hidden is prose, not a flag
";
        let blocks = usage_blocks(usage);
        assert_eq!(blocks.len(), 3);
        assert_eq!(
            blocks[0].options,
            ["hours", "no-noise", "out", "seed-stride"]
        );
        assert_eq!(blocks[1].actions, ["list", "evict"]);
        let parsed = |tokens: &[&str]| ParsedArgs::parse(tokens.iter().copied()).unwrap();
        assert_eq!(
            parsed(&["run", "--out=o", "--no-noise"]).reject_unknown(usage),
            Ok(())
        );
        assert_eq!(
            parsed(&["run", "--hidden", "1"]).reject_unknown(usage),
            Err(ArgsError::UnknownOption("hidden".into()))
        );
        assert_eq!(
            parsed(&["store", "evict", "--dir", "d"]).reject_unknown(usage),
            Ok(())
        );
        assert!(parsed(&["store", "--seed", "1"])
            .reject_unknown(usage)
            .is_err());
        assert!(parsed(&["--hours", "1"]).reject_unknown(usage).is_err());
        // No block matches: dispatch reports the unknown action itself.
        assert_eq!(
            parsed(&["store", "prune", "--x", "1"]).reject_unknown(usage),
            Ok(())
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let a = ParsedArgs::parse(Vec::<String>::new()).unwrap();
        assert_eq!(a.subcommand(), None);
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(
            ArgsError::Required("out".into()).to_string(),
            "missing required option --out"
        );
        assert!(ArgsError::BadValue {
            option: "hours".into(),
            value: "x".into(),
            ty: "f64"
        }
        .to_string()
        .contains("not a valid f64"));
    }
}
