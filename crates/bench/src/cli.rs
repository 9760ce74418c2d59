//! The binaries' one command-line front end.
//!
//! `figures`, `dirtbuster` and `kv_serving` each declare a [`Cli`] (the
//! flags that take a value, the switches, the usage text and the exit code
//! of a usage error) and read their arguments through [`Cli::parse`], one
//! pass from left to right:
//!
//! - a value flag takes the next argument as its value, whatever it looks
//!   like, so a value that equals a flag or a positional is only a value;
//!   a value flag given twice keeps its first value;
//! - any other argument that starts with `--` must be a switch;
//! - every other argument is a positional, kept in order.
//!
//! An unknown `--` flag, a value flag with nothing after it, or a value
//! that does not parse as its flag's type ([`Args::value`]) is a usage
//! error: the message and the usage text go to stderr and the binary exits
//! with its usage code. `--help` or `-h` anywhere wins over all of them:
//! the usage text goes to stdout and the binary exits 0.
//!
//! The binaries print to stdout only through [`out!`](crate::out) and
//! [`outln!`](crate::outln) ([`print_out`]): once the reader of stdout has
//! gone (`| head` exits early), printing stops and the run goes on.

use std::fmt::{self, Display};
use std::io::Write as _;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// One binary's command-line grammar and its usage text.
#[derive(Debug)]
pub struct Cli {
    /// Flags that take the next argument as their value.
    pub value_flags: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Printed on stdout by `--help` and on stderr after a usage error.
    pub usage: String,
    /// The exit code of a usage error.
    pub usage_exit: i32,
}

/// Why [`Cli::read`] returned no arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h` was given.
    Help,
    /// A `--` argument that is neither a value flag nor a switch.
    UnknownFlag(String),
    /// A value flag was the last argument.
    MissingValue(&'static str),
}

impl Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => f.write_str("help requested"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
        }
    }
}

/// A command line read against a [`Cli`].
#[derive(Debug)]
pub struct Args<'c> {
    cli: &'c Cli,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Cli {
    /// Read `args` (the arguments after the program name) in one pass.
    pub fn read(&self, args: impl IntoIterator<Item = String>) -> Result<Args<'_>, CliError> {
        let args: Vec<String> = args.into_iter().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Err(CliError::Help);
        }
        let mut read =
            Args { cli: self, switches: Vec::new(), values: Vec::new(), positionals: Vec::new() };
        let mut rest = args.into_iter();
        while let Some(arg) = rest.next() {
            if let Some(&flag) = self.value_flags.iter().find(|f| **f == arg) {
                let value = rest.next().ok_or(CliError::MissingValue(flag))?;
                read.values.push((flag, value));
            } else if let Some(&switch) = self.switches.iter().find(|s| **s == arg) {
                read.switches.push(switch);
            } else if arg.starts_with("--") {
                return Err(CliError::UnknownFlag(arg));
            } else {
                read.positionals.push(arg);
            }
        }
        Ok(read)
    }

    /// Read the process's arguments. `--help` prints the usage text on
    /// stdout and exits 0; any other [`CliError`] is a usage error
    /// ([`Cli::fail`]).
    pub fn parse(&self) -> Args<'_> {
        match self.read(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(CliError::Help) => {
                crate::outln!("{}", self.usage);
                std::process::exit(0);
            }
            Err(e) => self.fail(e),
        }
    }

    /// Report a usage error: `msg` and the usage text on stderr, then exit
    /// with the usage code.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(self.usage_exit);
    }
}

impl Args<'_> {
    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        debug_assert!(self.cli.switches.contains(&name), "{name} is not a switch");
        self.switches.contains(&name)
    }

    /// The first value of `flag` parsed as `T`, or `None` when the flag is
    /// absent. A value that does not parse is a usage error ([`Cli::fail`])
    /// that reads `invalid value "<value>" for <flag>: <parse error>`.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T>
    where
        T::Err: Display,
    {
        debug_assert!(self.cli.value_flags.contains(&flag), "{flag} is not a value flag");
        let (_, value) = self.values.iter().find(|(f, _)| *f == flag)?;
        match value.parse() {
            Ok(parsed) => Some(parsed),
            Err(e) => self.cli.fail(format!("invalid value {value:?} for {flag}: {e}")),
        }
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The positional arguments, of which the binary takes at most `max`:
    /// one more is a usage error ([`Cli::fail`]) that names it.
    pub fn positionals_up_to(&self, max: usize) -> &[String] {
        if let Some(extra) = self.positionals.get(max) {
            self.cli.fail(format!("unexpected argument {extra:?}"));
        }
        &self.positionals
    }
}

/// Whether a write to stdout has failed.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `args` to stdout: the one printing path of the binaries, through
/// [`out!`](crate::out) and [`outln!`](crate::outln). A write that fails
/// (the reader closed the pipe) stops every later print and nothing else:
/// the run still writes its files and exits with the code it earns, where
/// `print!` would panic.
pub fn print_out(args: fmt::Arguments<'_>) {
    if !STDOUT_CLOSED.load(Ordering::Relaxed) && std::io::stdout().write_fmt(args).is_err() {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// `print!` through [`cli::print_out`](crate::cli::print_out).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::print_out(format_args!($($arg)*))
    };
}

/// `println!` through [`cli::print_out`](crate::cli::print_out).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::print_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The result of a file operation on `path`. On an error, report `cannot
/// {doing} {path:?}: {error}` on stderr and exit 1: an I/O error is never
/// a usage error.
pub fn io_or_exit<T, E: Display>(doing: &str, path: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("cannot {doing} {path:?}: {e}");
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(value_flags: &'static [&'static str]) -> Cli {
        Cli { value_flags, switches: &["--quick"], usage: String::new(), usage_exit: 1 }
    }

    fn read<'c>(cli: &'c Cli, args: &[&str]) -> Result<Args<'c>, CliError> {
        cli.read(args.iter().map(|a| (*a).to_owned()))
    }

    const ARGS: [&str; 5] = ["--out", "--odd-dir", "--quick", "fig5", "--qiuck"];

    #[test]
    fn value_flags_take_the_next_argument_and_undeclared_flags_are_errors() {
        let out = cli(&["--out"]);
        let args = read(&out, &ARGS[..4]).expect("every flag is declared");
        assert_eq!(args.value::<String>("--out").as_deref(), Some("--odd-dir"));
        assert!(args.switch("--quick"));
        assert_eq!(args.positionals(), ["fig5"]);
        assert_eq!(read(&out, &ARGS).err(), Some(CliError::UnknownFlag("--qiuck".into())));
        assert_eq!(read(&cli(&[]), &ARGS).err(), Some(CliError::UnknownFlag("--out".into())));
    }

    #[test]
    fn a_missing_value_is_an_error_and_a_value_is_never_a_positional() {
        let out = cli(&["--out"]);
        let err = read(&out, &["fig5", "--out"]).expect_err("no value");
        assert_eq!(err, CliError::MissingValue("--out"));
        assert_eq!(err.to_string(), "--out needs a value");
        let args = read(&out, &["--out", "fig5", "fig5", "--out", "x"]).expect("valid");
        assert_eq!(args.value::<String>("--out").as_deref(), Some("fig5"), "the first wins");
        assert_eq!(args.positionals(), ["fig5"]);
    }

    #[test]
    fn help_anywhere_wins_over_every_error() {
        for args in [&["--qiuck", "-h"][..], &["--out", "--help"], &["fig5", "--help", "--out"]] {
            assert_eq!(read(&cli(&["--out"]), args).err(), Some(CliError::Help), "{args:?}");
        }
    }
}
