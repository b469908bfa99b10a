//! Count-valued flags, parsed one way everywhere.
//!
//! `--workers` (alias `--threads`; farm worker threads) is an optional
//! count from 1 to [`MAX_THREADS`], the ceiling a query's `OPTIONS
//! threads` obeys, that is rejected loudly when set to something
//! unusable, never silently. [`parse_count`] is the one parser; every
//! binary exits 2 on the reason it returns.

use wt_wtql::exec::MAX_THREADS;

/// Interprets a count-valued flag: `Ok(Some(n))` for a usable count,
/// `Ok(None)` when unset, `Err` with a human-readable reason when the
/// value is set but unusable (not a number, zero, or past
/// [`MAX_THREADS`]).
pub fn parse_count(name: &str, var: Option<&str>) -> Result<Option<usize>, String> {
    match var {
        None => Ok(None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => Err(format!("{name}={v} is zero; need at least 1 worker")),
            Ok(n) if n > MAX_THREADS => Err(format!(
                "{name}={v} is more than the cap of {MAX_THREADS} workers"
            )),
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
        assert_eq!(parse_count("--workers", None), Ok(None));
        assert_eq!(parse_count("--workers", Some("4")), Ok(Some(4)));
        assert_eq!(parse_count("--workers", Some(" 8 ")), Ok(Some(8)));
        let zero = parse_count("--workers", Some("0")).unwrap_err();
        assert!(zero.contains("--workers=0"), "message: {zero}");
        assert!(zero.contains("worker"), "message: {zero}");
        let junk = parse_count("--workers", Some("many")).unwrap_err();
        assert!(junk.contains("not a number"), "message: {junk}");
        // Parsing only: no test starts this many threads.
        assert_eq!(
            parse_count("--workers", Some("1024")),
            Ok(Some(MAX_THREADS))
        );
        for v in ["1025", "100000"] {
            let over = parse_count("--workers", Some(v)).unwrap_err();
            assert!(
                over.contains(&format!("--workers={v}")) && over.contains("cap of 1024"),
                "message: {over}"
            );
        }
    }
}
