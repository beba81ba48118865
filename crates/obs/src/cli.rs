//! One command-line parser for every binary in the workspace.
//!
//! Each command declares a [`Spec`]: the flags that take a value, the
//! switches (flags without one, like `--quick`) and how many positional
//! arguments it takes. [`parse`] applies one policy everywhere and names
//! the offender when an argument starting with `-` is not a flag of the
//! spec, a value flag comes last or its value starts with `-` (a value is
//! never also read as a switch), a flag is given twice, or there are more
//! positional arguments than declared. [`Args::number`] names a value that
//! is not a number, and [`Args::unread`] a flag the chosen mode never
//! reads. Every such message goes to [`or_exit`], which exits 2 before
//! anything is built, served, connected to or written. [`Telemetry`] owns
//! the two flags several binaries share, `--trace-out` and `--metrics-out`.

use std::path::PathBuf;
use std::str::FromStr;

/// What one command accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The command's name: error messages start with it, and
    /// [`parse_command`] picks a subcommand's spec by its words.
    pub name: &'static str,
    /// Flags that take the next argument as their value.
    pub values: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// The most positional arguments the command takes.
    pub positional: usize,
}

/// A command line that passed [`parse`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Every flag given, in order, with its value (`None` for a switch).
    flags: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

/// Parse `args` (without the program name) against `spec`, or return the
/// message that names the first argument the policy rejects.
pub fn parse(
    spec: &Spec,
    args: impl IntoIterator<Item = impl Into<String>>,
) -> Result<Args, String> {
    let name = spec.name;
    let mut parsed = Args::default();
    let mut args = args.into_iter().map(Into::into);
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            if parsed.positional.len() == spec.positional {
                return Err(format!("{name}: unexpected argument `{arg}`"));
            }
            parsed.positional.push(arg);
            continue;
        }
        let given = if let Some(&flag) = spec.values.iter().find(|&&f| f == arg) {
            match args.next() {
                Some(value) if !value.starts_with('-') => (flag, Some(value)),
                _ => return Err(format!("{name}: flag `{flag}` needs a value")),
            }
        } else if let Some(&flag) = spec.switches.iter().find(|&&f| f == arg) {
            (flag, None)
        } else {
            let known: Vec<&str> = spec.values.iter().chain(spec.switches).copied().collect();
            return Err(format!(
                "{name}: unknown flag `{arg}`; known flags: {}",
                known.join(", ")
            ));
        };
        if parsed.flags.iter().any(|(flag, _)| *flag == given.0) {
            return Err(format!("{name}: flag `{}` is given twice", given.0));
        }
        parsed.flags.push(given);
    }
    Ok(parsed)
}

/// Parse a command line that starts with a subcommand: pick the spec in
/// `commands` whose name (one or more words, like `registry list`) the
/// command line starts with, and [`parse`] the rest against it.
pub fn parse_command(
    commands: &[Spec],
    args: impl IntoIterator<Item = impl Into<String>>,
) -> Result<(&Spec, Args), String> {
    let args: Vec<String> = args.into_iter().map(Into::into).collect();
    let words = |spec: &Spec| spec.name.split(' ').count();
    let Some(spec) = commands.iter().find(|spec| {
        let given = args.iter().take(words(spec)).map(String::as_str);
        spec.name.split(' ').eq(given)
    }) else {
        let given = args.iter().map(String::as_str);
        let given: Vec<&str> = given.take_while(|a| !a.starts_with('-')).collect();
        let names: Vec<&str> = commands.iter().map(|c| c.name).collect();
        return Err(format!(
            "expected a subcommand, one of {}; got `{}`",
            names.join(", "),
            given.join(" ")
        ));
    };
    Ok((spec, parse(spec, args.into_iter().skip(words(spec)))?))
}

impl Args {
    /// The value given to the value flag `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Was the switch `flag` given?
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of `flag` as a number (`None` when the flag is absent), or
    /// a message naming the flag when the value does not parse.
    pub fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("flag `{flag}` takes a number, got `{v}`"))
            })
            .transpose()
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The first flag given that `reads` says the chosen mode never reads.
    pub fn unread(&self, reads: impl Fn(&str) -> bool) -> Option<&'static str> {
        self.flags.iter().map(|(f, _)| *f).find(|f| !reads(f))
    }
}

/// Print `msg` to stderr and exit with status 2, the status of every
/// command-line error.
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The value of `result`, or [`usage_error`] with its message.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|msg| usage_error(msg))
}

/// The telemetry a run writes on exit: `--trace-out FILE` turns span
/// tracing on and writes a Perfetto-loadable trace, `--metrics-out FILE`
/// writes a Prometheus text exposition.
#[derive(Debug)]
pub struct Telemetry {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

impl Telemetry {
    /// The two flags, for the value flags of a [`Spec`].
    pub const FLAGS: [&'static str; 2] = ["--trace-out", "--metrics-out"];

    /// Read both flags from `args`; tracing starts now if a trace is asked
    /// for.
    pub fn start(args: &Args) -> Telemetry {
        let path = |flag| args.value(flag).map(PathBuf::from);
        let telemetry = Telemetry {
            trace_out: path("--trace-out"),
            metrics_out: path("--metrics-out"),
        };
        if telemetry.trace_out.is_some() {
            crate::trace::enable();
        }
        telemetry
    }

    /// Write the exposition `metrics` renders and the trace, each reported
    /// on stderr. Returns `false` when either file could not be written,
    /// for the run to exit 1.
    pub fn finish(&self, metrics: impl FnOnce() -> String) -> bool {
        let mut written = true;
        if let Some(path) = &self.metrics_out {
            match std::fs::write(path, metrics()) {
                Ok(()) => eprintln!("wrote metrics exposition to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    written = false;
                }
            }
        }
        if let Some(path) = &self.trace_out {
            match crate::trace::write_json(path) {
                Ok(n) => eprintln!("wrote {n} trace events to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    written = false;
                }
            }
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        name: "demo",
        values: &["--threads", "--out"],
        switches: &["--quick"],
        positional: 1,
    };

    fn err(args: &[&str]) -> String {
        parse(&SPEC, args.iter().copied()).expect_err("rejected")
    }

    #[test]
    fn reads_values_switches_and_positionals() {
        let args = parse(&SPEC, ["table4", "--threads", "2", "--quick"]).expect("valid");
        assert_eq!(args.positional(), ["table4"]);
        assert_eq!(args.value("--threads"), Some("2"));
        assert_eq!(args.number::<usize>("--threads"), Ok(Some(2)));
        assert_eq!(args.number::<usize>("--out"), Ok(None));
        assert!(args.switch("--quick"));
        assert_eq!(args.value("--out"), None);
    }

    #[test]
    fn an_unknown_flag_is_named() {
        let msg = err(&["--quik"]);
        assert!(msg.contains("unknown flag `--quik`"), "{msg}");
    }

    #[test]
    fn a_value_flag_needs_a_value_that_is_not_a_flag() {
        assert!(err(&["--out"]).contains("`--out` needs a value"));
        let msg = err(&["--out", "--quick"]);
        assert!(msg.contains("`--out` needs a value"), "{msg}");
    }

    #[test]
    fn a_flag_given_twice_is_named() {
        assert!(err(&["--threads", "1", "--threads", "2"]).contains("`--threads` is given twice"));
        assert!(err(&["--quick", "--quick"]).contains("`--quick` is given twice"));
    }

    #[test]
    fn a_number_that_does_not_parse_is_named() {
        let args = parse(&SPEC, ["--threads", "x"]).expect("parses");
        let msg = args.number::<usize>("--threads").expect_err("not a number");
        assert!(msg.contains("`--threads` takes a number, got `x`"), "{msg}");
    }

    #[test]
    fn extra_positional_arguments_are_named() {
        let msg = err(&["fig1", "table3"]);
        assert!(msg.contains("unexpected argument `table3`"), "{msg}");
    }

    #[test]
    fn unread_names_the_first_flag_a_mode_does_not_read() {
        let args = parse(&SPEC, ["--quick", "--out", "f", "--threads", "1"]).expect("valid");
        assert_eq!(args.unread(|f| f == "--quick"), Some("--out"));
        assert_eq!(args.unread(|_| true), None);
    }

    #[test]
    fn a_subcommand_picks_its_spec_by_its_words() {
        const COMMANDS: &[Spec] = &[
            SPEC,
            Spec {
                name: "registry list",
                values: &["--dir"],
                switches: &[],
                positional: 0,
            },
        ];
        let (spec, args) =
            parse_command(COMMANDS, ["registry", "list", "--dir", "d"]).expect("valid");
        assert_eq!(
            (spec.name, args.value("--dir")),
            ("registry list", Some("d"))
        );
        let (spec, args) = parse_command(COMMANDS, ["demo", "fig1"]).expect("valid");
        assert_eq!(
            (spec.name, args.positional()),
            ("demo", &["fig1".to_string()][..])
        );
        let msg =
            parse_command(COMMANDS, ["registry", "list", "--quick"]).expect_err("not its flag");
        assert!(
            msg.contains("registry list: unknown flag `--quick`"),
            "{msg}"
        );
        let msg =
            parse_command(COMMANDS, ["registry", "gc", "--dir", "d"]).expect_err("no such action");
        assert!(msg.contains("subcommand, one of demo, registry list; got `registry gc`"));
    }
}
