//! `sptk`'s command-line grammar. Each command declares its positionals
//! and flags once in a [`Command`] table; [`Args::parse`] checks a whole
//! argv against that table before the command runs, and [`usage`] is
//! printed from the same tables, so the documented flags and the accepted
//! ones cannot drift apart.

use std::fmt;
use std::str::FromStr;

use gpu_sim::{FaultPlan, Interconnect};

/// How a flag's value is checked.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// Takes no value.
    Switch,
    /// A whole number no smaller than the given minimum.
    Count(u64),
    /// A finite number.
    Float,
    /// Bytes with an optional `k`/`m`/`g` suffix (`512m`).
    Bytes,
    /// Bytes, or a multiple of the run's worst footprint (`0.7x`).
    MemCapacity,
    /// Comma-separated `kind:rate` fault terms, or `none`.
    Faults,
    /// `nvlink`, `pcie` or `name:bwGBs:latus`.
    Interconnect,
    /// One of the listed words.
    Choice(&'static [&'static str]),
    /// A path, a name or a comma-separated list.
    Text,
}

/// One declared flag.
#[derive(Clone, Copy)]
pub(crate) struct Flag {
    pub(crate) name: &'static str,
    /// The value's placeholder in the usage text.
    meta: &'static str,
    kind: Kind,
    /// What the flag does, when its synopsis does not say enough.
    help: &'static str,
}

/// A flag that takes a value of `kind`, shown as `meta` in the usage.
pub(crate) const fn opt(name: &'static str, meta: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        meta,
        kind,
        help: "",
    }
}

/// A flag that takes no value.
pub(crate) const fn switch(name: &'static str) -> Flag {
    opt(name, "", Kind::Switch)
}

impl Flag {
    pub(crate) const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }

    fn synopsis(&self) -> String {
        match self.kind {
            Kind::Switch => format!("[{}]", self.name),
            Kind::Choice(words) => format!("[{} {}]", self.name, words.join("|")),
            _ => format!("[{} {}]", self.name, self.meta),
        }
    }

    /// Checks `raw` against the flag's kind.
    fn check(&self, raw: &str) -> Result<(), CliError> {
        let name = self.name;
        let wants = |ok: bool, what: &str| match ok {
            true => Ok(()),
            false => Err(format!("{name} wants {what}, got '{raw}'")),
        };
        let spec = |e: &dyn fmt::Display| format!("{name}: {e}");
        match self.kind {
            Kind::Count(min) => match raw.parse::<u64>() {
                Ok(n) if n < min => Err(format!("{name} wants at least {min}")),
                n => wants(n.is_ok(), "a count"),
            },
            Kind::Float => wants(raw.parse().is_ok_and(f64::is_finite), "a number"),
            Kind::Bytes => wants(parse_bytes(raw).is_some(), "bytes (with k/m/g)"),
            Kind::MemCapacity => wants(
                raw.parse::<MemCapacity>().is_ok(),
                "bytes (with k/m/g) or a fraction like 0.7x",
            ),
            Kind::Faults => FaultPlan::parse(raw, 0).map(drop).map_err(|e| spec(&e)),
            Kind::Interconnect => Interconnect::parse(raw).map(drop).map_err(|e| spec(&e)),
            Kind::Choice(words) => wants(words.contains(&raw), &words.join("|")),
            Kind::Switch | Kind::Text => Ok(()),
        }
        .map_err(CliError::BadValue)
    }
}

/// One `sptk` command: its words, positionals, flags and handler.
pub(crate) struct Command {
    /// The words after `sptk` (`"cpd"`, `"bench ingest"`).
    pub(crate) name: &'static str,
    pub(crate) positionals: &'static [&'static str],
    /// Flag groups; a group several commands share is one slice.
    pub(crate) flags: &'static [&'static [Flag]],
    pub(crate) about: &'static str,
    pub(crate) run: fn(&Args) -> Result<(), String>,
}

impl Command {
    pub(crate) fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    fn declared(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }

    /// The command `argv` names, and the arguments after its words.
    pub(crate) fn find<'a>(
        commands: &'static [Command],
        argv: &'a [String],
    ) -> Option<(&'static Command, &'a [String])> {
        commands.iter().find_map(|c| {
            let words = c.name.split(' ').count();
            let named = argv.len() >= words && c.name.split(' ').eq(argv[..words].iter());
            named.then(|| (c, &argv[words..]))
        })
    }
}

/// A `--mem-capacity` value, before the footprint it may be relative to
/// is known.
#[derive(Clone, Copy, Debug)]
pub(crate) enum MemCapacity {
    /// Absolute bytes (`123456`, `64m`, `2g`).
    Bytes(u64),
    /// A multiple of the run's worst per-launch footprint (`0.7x`).
    FootprintFraction(f64),
}

impl FromStr for MemCapacity {
    type Err = ();

    fn from_str(raw: &str) -> Result<MemCapacity, ()> {
        match raw.trim().to_ascii_lowercase().strip_suffix('x') {
            Some(frac) => match frac.parse::<f64>() {
                Ok(f) if f.is_finite() && f > 0.0 => Ok(MemCapacity::FootprintFraction(f)),
                _ => Err(()),
            },
            None => parse_bytes(raw).map(MemCapacity::Bytes).ok_or(()),
        }
    }
}

impl MemCapacity {
    /// Resolves to bytes against the worst single-launch footprint.
    pub(crate) fn resolve(&self, worst_footprint: u64) -> u64 {
        match *self {
            MemCapacity::Bytes(b) => b,
            MemCapacity::FootprintFraction(f) => (worst_footprint as f64 * f).ceil() as u64,
        }
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (`123456`,
/// `512m`, `2g`).
pub(crate) fn parse_bytes(raw: &str) -> Option<u64> {
    let s = raw.trim().to_ascii_lowercase();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s.as_str(), 1),
    };
    let n: f64 = digits.parse().ok()?;
    (n.is_finite() && n > 0.0).then_some((n * mult as f64) as u64)
}

/// Why an argv does not fit the command tables.
#[derive(Debug, PartialEq)]
pub(crate) enum CliError {
    /// The first words name no command (empty when argv is).
    UnknownCommand(String),
    UnknownFlag(String),
    /// A flag came last, or the token after it is one of the command's flags.
    MissingValue(&'static str),
    Repeated(&'static str),
    /// A value its flag's kind rejects; the text says why.
    BadValue(String),
    MissingPositional(&'static str),
    ExtraPositional(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) if c.is_empty() => write!(f, "missing command"),
            CliError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::MissingValue(flag) => write!(f, "{flag} wants a value"),
            CliError::Repeated(flag) => write!(f, "{flag} is given more than once"),
            CliError::BadValue(why) => f.write_str(why),
            CliError::MissingPositional(p) => write!(f, "missing {p}"),
            CliError::ExtraPositional(arg) => write!(f, "unexpected argument '{arg}'"),
        }
    }
}

/// A command line that fits its command's table.
pub(crate) struct Args {
    pub(crate) command: &'static Command,
    positionals: Vec<String>,
    /// Each given flag with its checked value (empty for a switch).
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Checks the whole of `argv` (without the program name) against
    /// `commands`: every token is a declared flag, its value, or one of
    /// the command's positionals, in any order.
    pub(crate) fn parse(commands: &'static [Command], argv: &[String]) -> Result<Args, CliError> {
        let (command, rest) = Command::find(commands, argv)
            .ok_or_else(|| CliError::UnknownCommand(argv.first().cloned().unwrap_or_default()))?;
        let mut args = Args {
            command,
            positionals: Vec::new(),
            values: Vec::new(),
        };
        let mut tokens = rest.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                args.positionals.push(token.clone());
                continue;
            }
            let flag = command
                .declared(token)
                .ok_or_else(|| CliError::UnknownFlag(token.clone()))?;
            if args.has(flag.name) {
                return Err(CliError::Repeated(flag.name));
            }
            let value = match flag.kind {
                Kind::Switch => String::new(),
                _ => match tokens.next() {
                    Some(raw) if command.declared(raw).is_none() => {
                        flag.check(raw)?;
                        raw.clone()
                    }
                    _ => return Err(CliError::MissingValue(flag.name)),
                },
            };
            args.values.push((flag.name, value));
        }
        let (given, wanted) = (args.positionals.len(), command.positionals.len());
        if given < wanted {
            return Err(CliError::MissingPositional(command.positionals[given]));
        }
        if given > wanted {
            return Err(CliError::ExtraPositional(args.positionals[wanted].clone()));
        }
        Ok(args)
    }

    /// The `i`-th positional; [`Args::parse`] checked that it is there.
    pub(crate) fn pos(&self, i: usize) -> &str {
        &self.positionals[i]
    }

    /// The checked value of flag `name`, if given.
    pub(crate) fn raw(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.command.declared(name).is_some(),
            "sptk {} declares no {name}",
            self.command.name
        );
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// The value of flag `name` as a `T` its kind was checked to be.
    pub(crate) fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.raw(name)?.parse().ok()
    }

    /// A comma-separated list.
    pub(crate) fn list(&self, name: &str) -> Option<Vec<String>> {
        self.raw(name)
            .map(|csv| csv.split(',').map(str::to_string).collect())
    }
}

/// The usage text of `commands`: each one's synopsis and description,
/// then what each of their flags with help text does.
pub(crate) fn usage(commands: &[Command]) -> String {
    let mut out = String::from("sptk — sparse tensor toolkit\nusage:\n");
    for c in commands {
        let positionals = c.positionals.iter().map(|p| p.to_string());
        let synopsis = positionals.chain(c.flags().map(Flag::synopsis));
        wrap(&mut out, &format!("  sptk {}", c.name), synopsis);
        if !c.about.is_empty() {
            wrap(&mut out, "     ", c.about.split_whitespace());
        }
    }
    let mut helped: Vec<&str> = Vec::new();
    for f in commands.iter().flat_map(Command::flags) {
        if !f.help.is_empty() && !helped.contains(&f.name) {
            helped.push(f.name);
            let lead = format!("  {} {}", f.name, f.meta);
            wrap(&mut out, lead.trim_end(), f.help.split_whitespace());
        }
    }
    out
}

/// Appends `lead` and then `words` to `out` as lines under 80 columns,
/// continuation lines indented by six.
fn wrap<S: AsRef<str>>(out: &mut String, lead: &str, words: impl IntoIterator<Item = S>) {
    out.push_str(lead);
    let mut col = lead.chars().count();
    for word in words {
        let word = word.as_ref();
        if col + 1 + word.len() > 80 && col > 6 {
            out.push_str("\n      ");
            col = 6;
        } else {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out.push('\n');
}
