//! Count-valued knobs, parsed one way everywhere.
//!
//! `WT_WORKERS` (farm worker threads) and the experiment binaries'
//! `--partitions` flag (partitions inside one simulation run) are the
//! same kind of knob: an optional positive count that is rejected loudly
//! when set to something unusable, never silently. [`parse_count`] is the
//! shared pure core (unit-testable without touching the process
//! environment); [`env_count`] adds the environment read and the
//! warn-once fallback.

/// Interprets a count-valued knob: `Ok(Some(n))` for a usable count,
/// `Ok(None)` when unset, `Err` with a human-readable reason when the
/// value is set but unusable (not a number, or zero). `noun` names the
/// counted thing in the zero-value message ("worker", "partition").
pub fn parse_count(name: &str, noun: &str, var: Option<&str>) -> Result<Option<usize>, String> {
    match var {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => Err(format!("{name}={v} is zero; need at least 1 {noun}")),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("{name}={v} is not a number")),
        },
    }
}

/// Reads the environment knob `name`, returning `Some(n)` for a usable
/// count and `None` when unset. A set-but-unusable value warns once per
/// knob on stderr (naming `fallback` as what will be used instead) and
/// returns `None` — the caller's fallback applies either way.
pub fn env_count(name: &'static str, noun: &str, fallback: &str) -> Option<usize> {
    match parse_count(name, noun, std::env::var(name).ok().as_deref()) {
        Ok(n) => n,
        Err(reason) => {
            warn_once(name, &reason, fallback);
            None
        }
    }
}

/// One warning per knob per process, so a farm constructed in a loop
/// does not spam stderr.
fn warn_once(name: &'static str, reason: &str, fallback: &str) {
    static WARNED: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());
    let mut warned = WARNED.lock().expect("knob warn list lock");
    if !warned.contains(&name) {
        warned.push(name);
        eprintln!("[farm] warning: {reason}; using {fallback}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_garbage() {
        assert_eq!(parse_count("WT_WORKERS", "worker", None), Ok(None));
        assert_eq!(parse_count("WT_WORKERS", "worker", Some("4")), Ok(Some(4)));
        assert_eq!(
            parse_count("WT_WORKERS", "worker", Some(" 8 ")),
            Ok(Some(8))
        );
        let zero = parse_count("WT_WORKERS", "worker", Some("0")).unwrap_err();
        assert!(zero.contains("WT_WORKERS=0"), "message: {zero}");
        assert!(zero.contains("worker"), "message: {zero}");
        let junk = parse_count("WT_WORKERS", "worker", Some("many")).unwrap_err();
        assert!(junk.contains("not a number"), "message: {junk}");
    }

    #[test]
    fn partitions_mirror_workers() {
        // The `--partitions` flag and `WT_WORKERS` share one parser, so
        // they accept and reject the same shapes — only the knob name and
        // noun differ.
        for raw in [None, Some("1"), Some("4"), Some(" 2 ")] {
            assert_eq!(
                parse_count("--partitions", "partition", raw),
                parse_count("WT_WORKERS", "worker", raw),
                "value {raw:?}"
            );
        }
        for raw in ["0", "-1", "lots", "2.5"] {
            let p = parse_count("--partitions", "partition", Some(raw)).unwrap_err();
            let w = parse_count("WT_WORKERS", "worker", Some(raw)).unwrap_err();
            assert!(p.starts_with("--partitions="), "message: {p}");
            assert!(w.starts_with("WT_WORKERS="), "message: {w}");
            // Same reason, different knob name.
            assert_eq!(
                p.trim_start_matches("--partitions")
                    .replace("partition", "worker"),
                w.trim_start_matches("WT_WORKERS"),
                "value {raw}"
            );
        }
    }
}
