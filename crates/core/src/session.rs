//! User sessions.

use crate::undo::UndoStack;
use crate::window_mgr::WinId;
use std::fmt;

/// Identifier of a session (one user at one terminal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// A session: a user with a set of open windows, the writes it can undo,
/// and (while a write is in flight) a set of locks.
#[derive(Debug, Default)]
pub struct Session {
    /// Windows owned by this session, in creation order.
    pub windows: Vec<WinId>,
    /// Writes committed by this session (status display, tests).
    pub commits: u64,
    /// The session's writes, newest last, and those of its open batch
    /// transaction, if any. Locks taken by commits inside a batch are held
    /// (strict 2PL) until the batch ends.
    pub undo: UndoStack,
}

impl Session {
    /// A fresh session remembering up to `undo_depth` writes.
    pub fn new(undo_depth: usize) -> Session {
        Session {
            undo: UndoStack::new(undo_depth),
            ..Session::default()
        }
    }

    /// Register a window.
    pub fn add_window(&mut self, w: WinId) {
        self.windows.push(w);
    }

    /// Deregister a window.
    pub fn remove_window(&mut self, w: WinId) {
        self.windows.retain(|&x| x != w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_bookkeeping() {
        let mut s = Session::new(4);
        s.add_window(WinId(1));
        s.add_window(WinId(2));
        s.remove_window(WinId(1));
        assert_eq!(s.windows, vec![WinId(2)]);
    }

    #[test]
    fn display() {
        assert_eq!(SessionId(3).to_string(), "session 3");
    }
}
