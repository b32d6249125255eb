//! The one parser behind every `DIFFUSE_*` environment knob that selects
//! among named values (`DIFFUSE_BACKEND`, `DIFFUSE_EXECUTOR`) or switches
//! something on or off (`DIFFUSE_VERIFY`, `DIFFUSE_HORIZONTAL`).
//!
//! All knobs share one grammar: the value is trimmed and ASCII-lowercased,
//! then looked up in the knob's spelling table. Unset or empty means the
//! documented default. An unrecognized value also means the default, but
//! warns once per variable on stderr — a typo silently running the wrong leg
//! would invalidate any comparison between legs.

use std::fmt::Debug;
use std::sync::Mutex;

/// The spellings every boolean knob accepts.
const BOOLEAN: [(&str, bool); 6] = [
    ("on", true),
    ("1", true),
    ("true", true),
    ("off", false),
    ("0", false),
    ("false", false),
];

/// Reads the boolean knob `var`: `on`, `1` or `true` enable it, `off`, `0`
/// or `false` disable it; unset, empty or unrecognized mean `default`.
pub fn flag(var: &str, default: bool) -> bool {
    choice(var, &BOOLEAN, default)
}

/// Reads the choice knob `var` against its spelling `table`; unset, empty or
/// unrecognized mean `default`.
pub fn choice<T: Copy + Debug>(var: &str, table: &[(&str, T)], default: T) -> T {
    resolve(var, std::env::var(var).ok().as_deref(), table, default)
}

/// [`choice`] over an already-read value (`None` = unset): the pure part,
/// which is what the spelling-table tests drive.
///
/// # Example
///
/// ```
/// let table = [("fast", 2), ("slow", 1)];
/// assert_eq!(ir::env::resolve("KNOB", Some(" Fast\n"), &table, 0), 2);
/// assert_eq!(ir::env::resolve("KNOB", Some(""), &table, 0), 0);
/// assert_eq!(ir::env::resolve("KNOB", None, &table, 0), 0);
/// ```
pub fn resolve<T: Copy + Debug>(
    var: &str,
    raw: Option<&str>,
    table: &[(&str, T)],
    default: T,
) -> T {
    let raw = raw.unwrap_or("");
    let value = raw.trim().to_ascii_lowercase();
    if value.is_empty() {
        return default;
    }
    if let Some(&(_, choice)) = table.iter().find(|(spelling, _)| *spelling == value) {
        return choice;
    }
    static WARNED: Mutex<Vec<String>> = Mutex::new(Vec::new());
    // The list is only ever pushed to, so a poisoned lock still holds it whole.
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.iter().any(|v| v == var) {
        warned.push(var.to_string());
        let expected: Vec<&str> = table.iter().map(|(spelling, _)| *spelling).collect();
        eprintln!(
            "warning: unrecognized {var} value {raw:?} (expected one of {expected:?}); \
             using the default, {default:?}"
        );
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_spellings_trim_and_ignore_case() {
        for default in [false, true] {
            for on in ["on", "1", "true", "ON", " True ", "tRuE\n"] {
                assert!(resolve("T_BOOL", Some(on), &BOOLEAN, default), "{on:?}");
            }
            for off in ["off", "0", "false", "OFF", "\tFalse"] {
                assert!(!resolve("T_BOOL", Some(off), &BOOLEAN, default), "{off:?}");
            }
            // Unset, empty and blank are the default, silently.
            for unset in [None, Some(""), Some("  ")] {
                assert_eq!(resolve("T_BOOL", unset, &BOOLEAN, default), default);
            }
            // A mis-spelt boolean is the default too — never silently "off".
            for typo in ["yes", "enable", "2", "on!"] {
                assert_eq!(resolve("T_BOOL", Some(typo), &BOOLEAN, default), default);
            }
        }
    }

    #[test]
    fn choices_resolve_through_their_table() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Leg {
            A,
            B,
        }
        let table = [("a", Leg::A), ("alpha", Leg::A), ("b", Leg::B)];
        assert_eq!(resolve("T_LEG", Some("B"), &table, Leg::A), Leg::B);
        assert_eq!(resolve("T_LEG", Some(" Alpha "), &table, Leg::B), Leg::A);
        assert_eq!(resolve("T_LEG", Some("c"), &table, Leg::B), Leg::B);
        assert_eq!(resolve("T_LEG", None, &table, Leg::A), Leg::A);
    }
}
