//! Count-valued flags, parsed one way everywhere.
//!
//! `--workers` (alias `--threads`; farm worker threads) and
//! `--partitions` (partitions inside one simulation run) are the same
//! kind of knob: an optional positive count that is rejected loudly when
//! set to something unusable, never silently. [`parse_count`] is the
//! one parser; every binary exits 2 on the reason it returns.

/// Interprets a count-valued flag: `Ok(Some(n))` for a usable count,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_garbage() {
        assert_eq!(parse_count("--workers", "worker", None), Ok(None));
        assert_eq!(parse_count("--workers", "worker", Some("4")), Ok(Some(4)));
        assert_eq!(parse_count("--workers", "worker", Some(" 8 ")), Ok(Some(8)));
        let zero = parse_count("--workers", "worker", Some("0")).unwrap_err();
        assert!(zero.contains("--workers=0"), "message: {zero}");
        assert!(zero.contains("worker"), "message: {zero}");
        let junk = parse_count("--workers", "worker", Some("many")).unwrap_err();
        assert!(junk.contains("not a number"), "message: {junk}");
    }

    #[test]
    fn partitions_mirror_workers() {
        // The `--partitions` and `--workers` flags share one parser, so
        // they accept and reject the same shapes — only the flag name and
        // noun differ.
        for raw in [None, Some("1"), Some("4"), Some(" 2 ")] {
            assert_eq!(
                parse_count("--partitions", "partition", raw),
                parse_count("--workers", "worker", raw),
                "value {raw:?}"
            );
        }
        for raw in ["0", "-1", "lots", "2.5"] {
            let p = parse_count("--partitions", "partition", Some(raw)).unwrap_err();
            let w = parse_count("--workers", "worker", Some(raw)).unwrap_err();
            assert!(p.starts_with("--partitions="), "message: {p}");
            assert!(w.starts_with("--workers="), "message: {w}");
            // Same reason, different knob name.
            assert_eq!(
                p.trim_start_matches("--partitions")
                    .replace("partition", "worker"),
                w.trim_start_matches("--workers"),
                "value {raw}"
            );
        }
    }
}
