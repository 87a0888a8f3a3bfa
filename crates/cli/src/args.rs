//! Argument parsing for the `rtt` binary.
//!
//! The grammar is deliberately tiny: positionals, `--name value` flags,
//! and `--name` switches. The rules, spelled out because they used to
//! be implicit:
//!
//! * a `--name` followed by a token that does not start with `--` is a
//!   **flag** and consumes that token as its value (so `--budget -5`
//!   parses, and the *value parser* rejects the negative number with a
//!   clear message);
//! * a `--name` at the end of argv, or directly followed by another
//!   `--…` token, is a **switch**;
//! * a repeated flag keeps its **last** value; asking a switch for a
//!   value (or a flag for switch-ness) is reported as an error rather
//!   than silently mis-parsed;
//! * each subcommand names the flags and switches it reads
//!   ([`Args::accept_only`]); any other `--name` is an error.

use std::collections::{BTreeMap, BTreeSet};

/// Parsed command-line arguments. Ordered maps (not hash maps) so any
/// error or debug rendering that walks them is deterministic — the
/// PR-9 determinism self-lint enforces this for every wire-path
/// module, and argument errors print to a user-visible stream.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Non-flag tokens, in order (the first is the subcommand).
    pub positional: Vec<String>,
    /// `--name value` pairs; a repeated flag keeps the last value.
    pub flags: BTreeMap<String, String>,
    /// Bare `--name` switches.
    pub switches: BTreeSet<String>,
}

/// Splits raw argv tokens into positionals, flags, and switches.
pub fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    while i < raw.len() {
        if let Some(name) = raw[i].strip_prefix("--") {
            if name.is_empty() {
                return Err("empty flag name `--`".into());
            }
            match raw.get(i + 1) {
                Some(value) if !value.starts_with("--") => {
                    args.flags.insert(name.to_string(), value.clone());
                    // a later `--name value` overrides; a switch spelling
                    // of the same name never downgrades the flag
                    args.switches.remove(name);
                    i += 2;
                }
                _ => {
                    if !args.flags.contains_key(name) {
                        args.switches.insert(name.to_string());
                    }
                    i += 1;
                }
            }
        } else {
            args.positional.push(raw[i].clone());
            i += 1;
        }
    }
    Ok(args)
}

impl Args {
    /// Parses the optional flag `--name` into `T`. Errors if the value
    /// does not parse, or if `--name` was given *without* a value.
    pub fn flag<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        if self.switches.contains(name) && !self.flags.contains_key(name) {
            return Err(format!("flag --{name} needs a value"));
        }
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for --{name}: {v}")),
        }
    }

    /// Like [`Args::flag`], but the flag is mandatory.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.flag(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Whether the bare switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// Refuses every `--name` the subcommand does not read: a name
    /// outside `flags` (read with a value) and `switches` (read bare),
    /// or a switch given a value. The error names the offending flag
    /// and lists what the subcommand accepts, so a misspelt `--thread`
    /// stops the command instead of being dropped.
    pub fn accept_only(&self, flags: &[&str], switches: &[&str]) -> Result<(), String> {
        let unknown = |name: &str| !flags.contains(&name) && !switches.contains(&name);
        let offence = self
            .flags
            .iter()
            .find_map(|(name, value)| {
                if switches.contains(&name.as_str()) {
                    Some(format!("switch --{name} takes no value, got {value:?}"))
                } else {
                    unknown(name).then(|| format!("unknown flag --{name}"))
                }
            })
            .or_else(|| {
                let name = self.switches.iter().find(|name| unknown(name))?;
                Some(format!("unknown flag --{name}"))
            });
        let Some(offence) = offence else {
            return Ok(());
        };
        let mut accepted: Vec<String> = flags
            .iter()
            .chain(switches)
            .map(|name| format!("--{name}"))
            .collect();
        accepted.sort_unstable();
        let accepted = if accepted.is_empty() {
            "no flags".to_string()
        } else {
            accepted.join(", ")
        };
        let cmd = self.positional.first().map_or("", String::as_str);
        Err(format!("rtt {cmd}: {offence}; it accepts {accepted}"))
    }
}

/// The most points a budget range may expand to. A range is counted
/// before it is expanded, so `0:1000000000:1` is an error here, not a
/// billion-element allocation; committed grids have at most 16 points.
const MAX_GRID_POINTS: u64 = 1 << 16;

/// Parses a budget grid: either an inclusive range `a:b:step`
/// (`0:16:2` → 0, 2, …, 16) or a comma list `a,b,c`. The grid is
/// reported in the order given; ranges require `step ≥ 1`, `a ≤ b`, and
/// at most 2^16 points.
///
/// A budget of **0 is deliberately accepted**: it is the well-defined
/// zero-resource point of the tradeoff curve (LP 6–10 with a zero
/// budget row routes no flow; the makespan is the base makespan, the
/// budget used is 0). Curve grids conventionally start there — the
/// committed curve golden uses `0:15:1` — so rejecting it at parse
/// would cut the curve's anchor point off. The degenerate-LP concern is
/// pinned by regression tests in `rtt_engine::curve` and here.
pub fn parse_budgets(spec: &str) -> Result<Vec<u64>, String> {
    if spec.contains(':') {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!("budget range must be a:b:step, got {spec:?}"));
        }
        let parse = |s: &str, what: &str| -> Result<u64, String> {
            s.parse()
                .map_err(|_| format!("invalid {what} in budget range {spec:?}: {s:?}"))
        };
        let a = parse(parts[0], "start")?;
        let b = parse(parts[1], "end")?;
        let step = parse(parts[2], "step")?;
        if step == 0 {
            return Err("budget range step must be ≥ 1".into());
        }
        if a > b {
            return Err(format!("budget range start {a} exceeds end {b}"));
        }
        // count the (b − a) / step + 1 points before expanding them
        if (b - a) / step >= MAX_GRID_POINTS {
            return Err(format!(
                "budget range {spec:?} has more than {MAX_GRID_POINTS} points"
            ));
        }
        Ok((a..=b).step_by(step as usize).collect())
    } else {
        spec.split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("invalid budget in list {spec:?}: {s:?}"))
            })
            .collect()
    }
}

/// Parses the `--cache-capacity` flag (default 1024): the shared LRU
/// bound of the preprocessing cache and the opt-in reuse cache.
///
/// Zero, negative, and garbage values are rejected **here**, at arg
/// parse, with a pointed message — they used to flow unvalidated into
/// the cache constructors, where `ReuseCache` silently clamped 0 to 1
/// (a capacity the user never asked for).
pub fn parse_cache_capacity(args: &Args) -> Result<usize, String> {
    if args.switch("cache-capacity") && !args.flags.contains_key("cache-capacity") {
        return Err("flag --cache-capacity needs a value".into());
    }
    match args.flags.get("cache-capacity") {
        None => Ok(1024),
        Some(raw) => match raw.parse::<usize>() {
            Ok(0) => Err("--cache-capacity must be at least 1, got 0".into()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!(
                "invalid value for --cache-capacity: {raw} (expected a positive integer)"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        parse_args(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn positionals_flags_and_switches_separate() {
        let a = parse(&["solve", "x.json", "--budget", "5", "--plan"]);
        assert_eq!(a.positional, vec!["solve", "x.json"]);
        assert_eq!(a.flag::<u64>("budget").unwrap(), Some(5));
        assert!(a.switch("plan"));
    }

    #[test]
    fn switch_before_value_flag() {
        // `--plan --budget 5`: plan must not swallow `--budget`
        let a = parse(&["--plan", "--budget", "5"]);
        assert!(a.switch("plan"));
        assert_eq!(a.flag::<u64>("budget").unwrap(), Some(5));
    }

    #[test]
    fn trailing_value_flag_is_a_switch_and_errors_on_read() {
        let a = parse(&["solve", "--solver"]);
        assert!(a.switch("solver"));
        // reading it as a flag reports the missing value instead of
        // silently falling back to a default
        assert_eq!(
            a.flag::<String>("solver").unwrap_err(),
            "flag --solver needs a value"
        );
        assert_eq!(
            a.require::<String>("solver").unwrap_err(),
            "flag --solver needs a value"
        );
    }

    #[test]
    fn repeated_flags_keep_the_last_value() {
        let a = parse(&["--budget", "3", "--budget", "9"]);
        assert_eq!(a.flag::<u64>("budget").unwrap(), Some(9));
        // flag then switch spelling: the value wins deterministically
        let a = parse(&["--budget", "3", "--budget"]);
        assert_eq!(a.flag::<u64>("budget").unwrap(), Some(3));
        // switch then flag spelling: the value wins too
        let a = parse(&["--budget", "--budget", "3"]);
        assert_eq!(a.flag::<u64>("budget").unwrap(), Some(3));
        assert!(!a.switch("budget"));
    }

    #[test]
    fn negative_values_are_consumed_then_rejected_by_type() {
        // `-5` does not start with `--`, so it is the flag's value; the
        // u64 parse then fails with a pointed message
        let a = parse(&["--budget", "-5"]);
        assert_eq!(
            a.flag::<u64>("budget").unwrap_err(),
            "invalid value for --budget: -5"
        );
        // a type that accepts negatives parses fine
        assert_eq!(a.flag::<i64>("budget").unwrap(), Some(-5));
        let a = parse(&["--alpha", "-0.25"]);
        assert_eq!(a.flag::<f64>("alpha").unwrap(), Some(-0.25));
    }

    #[test]
    fn only_accepted_names_pass() {
        let flags = ["threads", "out"];
        let switches = ["plan"];
        let a = parse(&["batch", "c.ndjson", "--threads", "4", "--plan"]);
        assert_eq!(a.accept_only(&flags, &switches), Ok(()));
        // a misspelt flag, value or not, is named
        for argv in [
            &["batch", "c.ndjson", "--thread", "4"][..],
            &["batch", "c.ndjson", "--thread"][..],
        ] {
            assert_eq!(
                parse(argv).accept_only(&flags, &switches).unwrap_err(),
                "rtt batch: unknown flag --thread; it accepts --out, --plan, --threads"
            );
        }
        // a switch cannot swallow the next token as a value
        assert_eq!(
            parse(&["batch", "--plan", "c.ndjson"])
                .accept_only(&flags, &switches)
                .unwrap_err(),
            "rtt batch: switch --plan takes no value, got \"c.ndjson\"; \
             it accepts --out, --plan, --threads"
        );
        assert_eq!(
            parse(&["solvers", "--all"])
                .accept_only(&[], &[])
                .unwrap_err(),
            "rtt solvers: unknown flag --all; it accepts no flags"
        );
    }

    #[test]
    fn missing_and_empty_names() {
        let a = parse(&["solve"]);
        assert_eq!(
            a.require::<u64>("budget").unwrap_err(),
            "missing required flag --budget"
        );
        assert!(parse_args(&["--".to_string()]).is_err());
    }

    #[test]
    fn budget_grids_parse() {
        assert_eq!(parse_budgets("0:16:4").unwrap(), vec![0, 4, 8, 12, 16]);
        assert_eq!(parse_budgets("3:5:1").unwrap(), vec![3, 4, 5]);
        assert_eq!(parse_budgets("7:7:2").unwrap(), vec![7]);
        assert_eq!(parse_budgets("1,8,2").unwrap(), vec![1, 8, 2]);
        assert_eq!(parse_budgets("9").unwrap(), vec![9]);
        assert!(parse_budgets("4:2:1").is_err(), "start > end");
        assert!(parse_budgets("0:4:0").is_err(), "zero step");
        assert!(parse_budgets("0:4").is_err(), "two-part range");
        assert!(parse_budgets("a,b").is_err());
        assert!(
            parse_budgets("0:100000:1").is_err(),
            "more points than the cap"
        );
    }

    #[test]
    fn budget_ranges_are_counted_before_they_expand() {
        let cap = MAX_GRID_POINTS;
        assert_eq!(
            parse_budgets(&format!("0:{}:1", cap - 1)).unwrap().len() as u64,
            cap
        );
        assert_eq!(
            parse_budgets(&format!("0:{cap}:1")).unwrap_err(),
            format!("budget range \"0:{cap}:1\" has more than {cap} points")
        );
        // a strided range counts its points, not its span
        assert_eq!(
            parse_budgets(&format!("7:{}:3", 7 + 3 * (cap - 1)))
                .unwrap()
                .len() as u64,
            cap
        );
        // the whole u64 axis: refused, and counting it cannot overflow
        assert!(parse_budgets(&format!("0:{}:1", u64::MAX)).is_err());
    }

    #[test]
    fn cache_capacity_rejects_zero_negative_and_garbage() {
        // satellite 1 (PR 8): bad capacities die at arg parse with a
        // message naming the flag, never inside a cache constructor
        assert_eq!(parse_cache_capacity(&parse(&["batch"])).unwrap(), 1024);
        assert_eq!(
            parse_cache_capacity(&parse(&["batch", "--cache-capacity", "8"])).unwrap(),
            8
        );
        assert_eq!(
            parse_cache_capacity(&parse(&["batch", "--cache-capacity", "0"])).unwrap_err(),
            "--cache-capacity must be at least 1, got 0"
        );
        assert_eq!(
            parse_cache_capacity(&parse(&["batch", "--cache-capacity", "-5"])).unwrap_err(),
            "invalid value for --cache-capacity: -5 (expected a positive integer)"
        );
        assert_eq!(
            parse_cache_capacity(&parse(&["batch", "--cache-capacity", "many"])).unwrap_err(),
            "invalid value for --cache-capacity: many (expected a positive integer)"
        );
        assert_eq!(
            parse_cache_capacity(&parse(&["batch", "--cache-capacity"])).unwrap_err(),
            "flag --cache-capacity needs a value"
        );
    }

    #[test]
    fn budget_zero_is_accepted_as_the_zero_resource_point() {
        // B = 0 is defined behavior, not an accident: the curve's anchor
        // point (see the parse_budgets docs and the committed curve
        // golden's 0:15:1 grid). Both spellings must keep accepting it.
        assert_eq!(parse_budgets("0").unwrap(), vec![0]);
        assert_eq!(parse_budgets("0,3").unwrap(), vec![0, 3]);
        assert_eq!(parse_budgets("0:0:1").unwrap(), vec![0]);
        assert_eq!(parse_budgets("0:15:1").unwrap().len(), 16);
    }
}
