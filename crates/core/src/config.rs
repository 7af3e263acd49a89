//! Tunables for a [`crate::world::World`].

use wow_tui::geom::Size;
use wow_views::translate::CheckOption;

/// Configuration for a world.
#[derive(Debug, Clone, Copy)]
pub struct WorldConfig {
    /// Screen size the window manager composes onto.
    pub screen: Size,
    /// Rows fetched per browse page (one "screenful", the paper's unit).
    pub page_size: usize,
    /// Whether through-view writes are checked against the view predicate.
    pub check_option: CheckOption,
    /// Whether the lock manager is consulted (Table 5 turns this off for
    /// the unsafe baseline).
    pub locking: bool,
    /// Per-session undo depth.
    pub undo_depth: usize,
    /// Whether write propagation pushes typed deltas through the view
    /// algebra and patches browse cursors in place; off forces the full
    /// re-query path on every affected window (the Figure 4 baseline).
    pub delta_propagation: bool,
    /// Worker threads for intra-query parallelism (partitioned scans and
    /// hash-join builds). `0` means auto (available parallelism, capped);
    /// the `WOW_WORKERS` environment variable overrides either way (see
    /// [`wow_par::resolve_workers`]). `1` is exact serial execution.
    pub workers: usize,
    /// Slow-query threshold: traced root spans at least this slow are
    /// copied into the tracer's slow-query log. `0` disables the log; the
    /// `WOW_SLOW_NS` environment variable overrides either way (see
    /// [`wow_obs::resolve_slow_threshold_ns`]).
    pub slow_query_ns: u64,
    /// Commits between automatic durable checkpoints (`0` disables them).
    /// Only meaningful for worlds opened with
    /// [`crate::world::World::open_durable`]; the `WOW_CKPT_EVERY`
    /// environment variable overrides either way (see
    /// [`wow_rel::durable::resolve_checkpoint_every`]).
    pub checkpoint_every: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            screen: Size::new(80, 24),
            page_size: 16,
            check_option: CheckOption::Checked,
            locking: true,
            undo_depth: 64,
            delta_propagation: true,
            workers: 0,
            slow_query_ns: 100_000_000,
            checkpoint_every: 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = WorldConfig::default();
        assert_eq!(c.screen, Size::new(80, 24));
        assert!(c.page_size > 0);
        assert!(c.locking);
        assert_eq!(c.check_option, CheckOption::Checked);
    }
}
