//! Reproducible streams of window operations.
//!
//! The concurrency/propagation experiments need "users doing things" —
//! these scripts are those users, deterministic per seed.

use crate::rng::DetRng;
use wow_core::error::{WowError, WowResult};
use wow_core::window_mgr::WinId;
use wow_core::world::World;

/// One user action against a window.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowOp {
    /// Advance one row.
    Next,
    /// Step back one row.
    Prev,
    /// Page forward.
    NextPage,
    /// Page backward.
    PrevPage,
    /// Edit the current row: overwrite field `field` with `text`, commit.
    Edit {
        /// Field index on the form.
        field: usize,
        /// New text.
        text: String,
    },
    /// Delete the current row.
    Delete,
    /// Apply a query-by-form restriction to one field, then return to
    /// browsing.
    Query {
        /// Field index.
        field: usize,
        /// QBF entry.
        entry: String,
    },
    /// Clear the active restriction.
    ClearQuery,
    /// Explicit refresh.
    Refresh,
}

/// Generate a browse-heavy mixed script. `edit_ratio` in `[0,1]` is the
/// fraction of operations that are edits of `edit_field` (set to a numeric,
/// writable field) with small integer texts.
pub fn mixed_script(
    rng: &mut DetRng,
    len: usize,
    edit_ratio: f64,
    edit_field: usize,
) -> Vec<WindowOp> {
    (0..len)
        .map(|_| {
            if rng.unit_f64() < edit_ratio {
                WindowOp::Edit {
                    field: edit_field,
                    text: rng.range_i64(1, 999).to_string(),
                }
            } else {
                match rng.below(4) {
                    0 => WindowOp::Next,
                    1 => WindowOp::Prev,
                    2 => WindowOp::NextPage,
                    _ => WindowOp::PrevPage,
                }
            }
        })
        .collect()
}

/// Execute one op against a window. Lock conflicts and deadlocks are
/// returned (the caller decides whether to retry); everything else that a
/// user could trigger by typing is absorbed into the window status, as the
/// real UI does.
pub fn apply(world: &mut World, win: WinId, op: &WindowOp) -> WowResult<()> {
    match op {
        WindowOp::Next => {
            world.browse_next(win)?;
        }
        WindowOp::Prev => {
            world.browse_prev(win)?;
        }
        WindowOp::NextPage => {
            world.browse_next_page(win)?;
        }
        WindowOp::PrevPage => {
            world.browse_prev_page(win)?;
        }
        WindowOp::Edit { field, text } => {
            world.enter_edit(win)?;
            world.window_mut(win)?.form.set_text(*field, text);
            match world.commit(win) {
                Ok(()) => {}
                Err(e @ (WowError::LockConflict { .. } | WowError::Deadlock { .. })) => {
                    world.cancel_mode(win)?;
                    return Err(e);
                }
                Err(other) => {
                    // Validation/uniqueness: the UI shows it and stays put.
                    world.set_status(win, &other.to_string());
                    world.cancel_mode(win)?;
                }
            }
        }
        WindowOp::Delete => match world.delete_current(win) {
            Ok(()) | Err(WowError::NoCurrentRow) => {}
            Err(e) => return Err(e),
        },
        WindowOp::Query { field, entry } => {
            world.enter_query(win)?;
            world.window_mut(win)?.form.set_text(*field, entry);
            match world.apply_query(win) {
                Ok(()) => {}
                Err(e) => {
                    world.set_status(win, &e.to_string());
                    world.cancel_mode(win)?;
                }
            }
        }
        WindowOp::ClearQuery => world.clear_query(win)?,
        WindowOp::Refresh => world.refresh_window(win)?,
    }
    Ok(())
}

/// Run a whole script, returning `(completed, lock_denials)`.
pub fn run_script(world: &mut World, win: WinId, ops: &[WindowOp]) -> WowResult<(u64, u64)> {
    let mut done = 0;
    let mut denied = 0;
    for op in ops {
        match apply(world, win, op) {
            Ok(()) => done += 1,
            Err(WowError::LockConflict { .. } | WowError::Deadlock { .. }) => denied += 1,
            Err(other) => return Err(other),
        }
    }
    Ok((done, denied))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suppliers::{build_world, SuppliersConfig};
    use wow_core::WorldConfig;

    fn world() -> World {
        build_world(
            WorldConfig::default(),
            &SuppliersConfig {
                suppliers: 20,
                parts: 20,
                shipments: 100,
                seed: 8,
            },
        )
    }

    #[test]
    fn scripts_are_deterministic() {
        let mut r1 = DetRng::new(5);
        let mut r2 = DetRng::new(5);
        assert_eq!(
            mixed_script(&mut r1, 50, 0.2, 3),
            mixed_script(&mut r2, 50, 0.2, 3)
        );
    }

    #[test]
    fn mixed_script_runs_to_completion() {
        let mut w = world();
        let s = w.open_session();
        let win = w.open_window(s, "shipments", None).unwrap();
        let mut rng = DetRng::new(6);
        let ops = mixed_script(&mut rng, 200, 0.1, 3); // edit qty
        let (done, denied) = run_script(&mut w, win, &ops).unwrap();
        assert_eq!(done, 200);
        assert_eq!(denied, 0, "single session never conflicts with itself");
        assert!(w.stats.commits > 0, "some edits committed");
    }

    #[test]
    fn query_and_clear_ops() {
        let mut w = world();
        let s = w.open_session();
        let win = w.open_window(s, "suppliers", None).unwrap();
        apply(
            &mut w,
            win,
            &WindowOp::Query {
                field: 2,
                entry: "london".into(),
            },
        )
        .unwrap();
        assert!(w.window(win).unwrap().query.pred.is_some());
        apply(&mut w, win, &WindowOp::ClearQuery).unwrap();
        assert!(w.window(win).unwrap().query.pred.is_none());
    }

    #[test]
    fn delete_op_tolerates_empty_cursor() {
        let mut w = world();
        let s = w.open_session();
        let win = w.open_window(s, "suppliers", None).unwrap();
        // Empty the window with an impossible query, then delete.
        apply(
            &mut w,
            win,
            &WindowOp::Query {
                field: 1,
                entry: "no-such-supplier".into(),
            },
        )
        .unwrap();
        apply(&mut w, win, &WindowOp::Delete).unwrap();
    }
}
