//! Errors of the window-manager layer.

use std::fmt;

/// Result alias for the core layer.
pub type WowResult<T> = Result<T, WowError>;

/// Errors surfaced to the embedding application (and, in friendlier words,
/// to the window status bar).
#[derive(Debug)]
pub enum WowError {
    /// Relational engine error.
    Rel(wow_rel::RelError),
    /// View layer error.
    View(wow_views::ViewError),
    /// Forms layer error.
    Form(wow_forms::FormError),
    /// Unknown session.
    NoSuchSession(u32),
    /// Unknown window.
    NoSuchWindow(u32),
    /// The window is read-only (its view is not updatable).
    ReadOnly {
        /// Window's view name.
        view: String,
        /// Why the view is not updatable.
        reasons: Vec<String>,
    },
    /// A lock could not be granted because another session holds it.
    LockConflict {
        /// The relation.
        table: String,
        /// The blocking session.
        blocker: u32,
    },
    /// Granting the lock would deadlock.
    Deadlock {
        /// The relation being requested.
        table: String,
    },
    /// The operation needs a current row and the cursor is empty.
    NoCurrentRow,
    /// Nothing to undo.
    NothingToUndo,
    /// The operation is invalid in the window's current mode.
    WrongMode {
        /// What was attempted.
        wanted: &'static str,
        /// The window's mode.
        mode: &'static str,
    },
    /// One or more windows failed to catch up during propagation. Every
    /// healthy window was still brought current — propagation runs to
    /// completion and reports the casualties afterwards.
    PropagationFailed {
        /// `(window id, error)` for each window whose refresh failed.
        failures: Vec<(u32, String)>,
    },
    /// A network transport failure: connect/read/write errors, handshake
    /// or protocol violations, or a connection closed mid-exchange. The
    /// `wow-net` layer maps every `std::io::Error` and wire-decode failure
    /// into this variant so remote callers get `WowResult` end to end.
    Net(String),
}

impl fmt::Display for WowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WowError::Rel(e) => write!(f, "{e}"),
            WowError::View(e) => write!(f, "{e}"),
            WowError::Form(e) => write!(f, "{e}"),
            WowError::NoSuchSession(s) => write!(f, "no such session: {s}"),
            WowError::NoSuchWindow(w) => write!(f, "no such window: {w}"),
            WowError::ReadOnly { view, reasons } => {
                write!(f, "window on {view} is read-only: {}", reasons.join("; "))
            }
            WowError::LockConflict { table, blocker } => {
                write!(f, "{table} is locked by session {blocker}")
            }
            WowError::Deadlock { table } => {
                write!(f, "waiting for {table} would deadlock; aborted")
            }
            WowError::NoCurrentRow => write!(f, "no current row"),
            WowError::NothingToUndo => write!(f, "nothing to undo"),
            WowError::WrongMode { wanted, mode } => {
                write!(f, "cannot {wanted} in {mode} mode")
            }
            WowError::PropagationFailed { failures } => {
                write!(
                    f,
                    "{} window refresh(es) failed during propagation: ",
                    failures.len()
                )?;
                let msgs: Vec<String> = failures
                    .iter()
                    .map(|(id, e)| format!("window {id}: {e}"))
                    .collect();
                write!(f, "{}", msgs.join("; "))
            }
            WowError::Net(msg) => write!(f, "network error: {msg}"),
        }
    }
}

impl std::error::Error for WowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WowError::Rel(e) => Some(e),
            WowError::View(e) => Some(e),
            WowError::Form(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wow_rel::RelError> for WowError {
    fn from(e: wow_rel::RelError) -> Self {
        WowError::Rel(e)
    }
}

impl From<wow_views::ViewError> for WowError {
    fn from(e: wow_views::ViewError) -> Self {
        WowError::View(e)
    }
}

impl From<wow_forms::FormError> for WowError {
    fn from(e: wow_forms::FormError) -> Self {
        WowError::Form(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_conversions() {
        let e: WowError = wow_rel::RelError::NoSuchTable("t".into()).into();
        assert_eq!(e.to_string(), "no such table: t");
        let e = WowError::ReadOnly {
            view: "v".into(),
            reasons: vec!["joins two relations".into()],
        };
        assert!(e.to_string().contains("read-only"));
        let e = WowError::Deadlock {
            table: "emp".into(),
        };
        assert!(e.to_string().contains("deadlock"));
    }
}
