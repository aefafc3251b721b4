//! Flag parsing shared by the benches, the perf tools and the examples: a
//! flag with a missing or malformed value, or an argument the caller does
//! not know, is a usage error (exit status 2), never a panic.

use std::str::FromStr;

/// Print `msg` to stderr and exit with the usage-error status 2.
pub fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value after `flag` in `argv` parsed as `T`, or `None` when `flag`
/// is absent. A missing or unparsable value is a usage error.
pub fn flag<T: FromStr>(argv: &[String], flag: &str) -> Option<T> {
    let i = argv.iter().position(|a| a == flag)?;
    let Some(value) = argv.get(i + 1) else {
        usage(&format!("{flag} requires a value"));
    };
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => usage(&format!("bad value `{value}` for {flag}")),
    }
}

/// The comma-separated list after `flag` (`--threads 1,2,4`), each entry
/// parsed as `T`; `None` when `flag` is absent.
pub fn list<T: FromStr>(argv: &[String], flag: &str) -> Option<Vec<T>> {
    let spec: String = self::flag(argv, flag)?;
    let entry = |t: &str| {
        (t.trim().parse().ok()).unwrap_or_else(|| usage(&format!("bad entry `{t}` in {flag}")))
    };
    Some(spec.split(',').map(entry).collect())
}

/// Usage error unless every argument after the program name is one of
/// `valued` (with the value that follows it) or one of `switches`.
pub fn only(argv: &[String], valued: &[&str], switches: &[&str]) {
    let mut rest = argv.iter().skip(1).map(String::as_str);
    while let Some(a) = rest.next() {
        if valued.contains(&a) {
            rest.next();
        } else if !switches.contains(&a) {
            usage(&format!("unknown argument {a}"));
        }
    }
}
