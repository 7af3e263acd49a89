//! Per-session undo of through-window writes.
//!
//! Every committed edit/insert/delete pushes the [`BaseDelta`] it made;
//! undo pops it and writes the inverse. The history is bounded
//! ([`crate::config::WorldConfig::undo_depth`]); the oldest entries fall
//! off, as they did when undo logs were core memory. An open batch keeps
//! its own deltas apart from that history, unbounded, so aborting it can
//! always roll every one of them back.

use wow_rel::delta::BaseDelta;

/// A bounded undo history plus the open batch's writes.
#[derive(Debug, Default)]
pub struct UndoStack {
    entries: Vec<BaseDelta>,
    depth: usize,
    /// The writes of the open batch, oldest first.
    batch: Option<Vec<BaseDelta>>,
}

impl UndoStack {
    /// A stack keeping at most `depth` entries of history.
    pub fn new(depth: usize) -> UndoStack {
        UndoStack {
            entries: Vec::new(),
            depth,
            batch: None,
        }
    }

    /// Number of undoable writes.
    pub fn len(&self) -> usize {
        self.entries.len() + self.batch.as_ref().map_or(0, Vec::len)
    }

    /// Whether there is nothing to undo.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a write: into the open batch, else into the bounded history.
    pub fn push(&mut self, delta: BaseDelta) {
        match &mut self.batch {
            Some(batch) => batch.push(delta),
            None => self.remember(delta),
        }
    }

    fn remember(&mut self, delta: BaseDelta) {
        if self.depth == 0 {
            return;
        }
        if self.entries.len() == self.depth {
            self.entries.remove(0);
        }
        self.entries.push(delta);
    }

    /// Pop the most recent write — the open batch's first.
    pub fn pop(&mut self) -> Option<BaseDelta> {
        let batched = self.batch.as_mut().and_then(Vec::pop);
        batched.or_else(|| self.entries.pop())
    }

    /// Whether a batch is open.
    pub fn in_batch(&self) -> bool {
        self.batch.is_some()
    }

    /// Open a batch. `false` if one is already open.
    pub fn begin_batch(&mut self) -> bool {
        let fresh = self.batch.is_none();
        self.batch.get_or_insert_with(Vec::new);
        fresh
    }

    /// Close the open batch, keeping its writes as ordinary history.
    /// `false` if no batch is open.
    pub fn commit_batch(&mut self) -> bool {
        let Some(batch) = self.batch.take() else {
            return false;
        };
        for delta in batch {
            self.remember(delta);
        }
        true
    }

    /// Close the open batch and hand back its writes, oldest first, for
    /// rolling back. `None` if no batch is open.
    pub fn take_batch(&mut self) -> Option<Vec<BaseDelta>> {
        self.batch.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wow_rel::tuple::Tuple;
    use wow_storage::{PageId, Rid};

    fn ins(n: u64) -> BaseDelta {
        BaseDelta::insert("t", Rid::new(PageId(n), 0), Tuple::new(vec![]))
    }

    fn popped(s: &mut UndoStack) -> Option<Rid> {
        s.pop().map(|d| d.inserted[0].0)
    }

    fn rid(n: u64) -> Option<Rid> {
        Some(Rid::new(PageId(n), 0))
    }

    #[test]
    fn lifo_order() {
        let mut s = UndoStack::new(8);
        s.push(ins(1));
        s.push(ins(2));
        assert_eq!(s.len(), 2);
        assert_eq!(popped(&mut s), rid(2));
        assert_eq!(popped(&mut s), rid(1));
        assert_eq!(popped(&mut s), None);
    }

    #[test]
    fn bounded_depth_drops_oldest() {
        let mut s = UndoStack::new(2);
        s.push(ins(1));
        s.push(ins(2));
        s.push(ins(3));
        assert_eq!(s.len(), 2);
        assert_eq!(popped(&mut s), rid(3));
        assert_eq!(popped(&mut s), rid(2));
    }

    #[test]
    fn zero_depth_disables_undo() {
        let mut s = UndoStack::new(0);
        s.push(ins(1));
        assert!(s.is_empty());
    }

    #[test]
    fn batch_is_kept_apart_from_bounded_history() {
        let mut s = UndoStack::new(1);
        s.push(ins(1));
        assert!(s.begin_batch());
        assert!(!s.begin_batch(), "one batch at a time");
        for n in 2..5 {
            s.push(ins(n));
        }
        assert_eq!(s.len(), 4, "the batch is not bounded by the depth");
        let batch = s.take_batch().unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(popped(&mut s), rid(1), "history is untouched");
        // A committed batch joins the bounded history.
        s.begin_batch();
        s.push(ins(5));
        s.push(ins(6));
        assert!(s.commit_batch());
        assert!(!s.commit_batch());
        assert_eq!(s.len(), 1);
        assert_eq!(popped(&mut s), rid(6));
    }
}
