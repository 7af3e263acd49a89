//! Deterministic fault injection for durability torture tests.
//!
//! Crash testing is only trustworthy when the same seed reproduces the same
//! failure, so everything here is driven by a [`SplitMix64`] generator seeded
//! from the test plan — never by wall-clock time or OS randomness.
//!
//! [`FaultLog`] is a WAL backend (see [`crate::wal::Wal::with_faults`]) that
//! splits the log image into a *durable* region (made it through fsync) and
//! a *buffered* region (written but not yet synced). Appends can short-write
//! and fail; flushes can fail outright (nothing promoted) or "time out"
//! (data promoted, acknowledgment lost — the classic indeterminate commit).
//! [`FaultLog::crash_image`] simulates power loss: the durable bytes plus a
//! torn prefix of the buffered bytes.

use std::io;

/// A tiny, high-quality, deterministic PRNG (splitmix64). Not cryptographic;
/// exactly reproducible across platforms for a given seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator. Equal seeds produce equal sequences forever.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Bernoulli trial with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u32) -> bool {
        self.below(1000) < per_mille as u64
    }
}

/// What to inject, and how often. Rates are per-mille (0 = never,
/// 1000 = always) so plans stay integer-exact and portable.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// RNG seed; the whole fault schedule is a pure function of it.
    pub seed: u64,
    /// Per-append probability of a short write: a prefix of the frame lands
    /// in the buffered region and the append returns an `io::Error`.
    pub short_write_per_mille: u32,
    /// Per-flush probability of an fsync failure: nothing is promoted to the
    /// durable region and the flush returns an `io::Error`.
    pub fail_flush_per_mille: u32,
    /// Per-flush probability of a delayed fsync: the data *is* promoted, but
    /// the call returns `io::ErrorKind::TimedOut` — the caller cannot know
    /// whether its commit is durable (an indeterminate commit).
    pub late_flush_per_mille: u32,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            short_write_per_mille: 0,
            fail_flush_per_mille: 0,
            late_flush_per_mille: 0,
        }
    }
}

/// Counters of injected faults, for assertions ("this run really did inject
/// torn writes") and for classifying commit outcomes in the torture harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Appends that short-wrote and errored.
    pub short_writes: u64,
    /// Flushes that failed without promoting anything.
    pub failed_flushes: u64,
    /// Flushes that promoted but reported a timeout.
    pub late_flushes: u64,
}

/// The fault-injecting WAL backend. See the module docs for the model.
#[derive(Debug)]
pub struct FaultLog {
    durable: Vec<u8>,
    buffered: Vec<u8>,
    rng: SplitMix64,
    plan: FaultPlan,
    stats: FaultStats,
}

fn injected(kind: io::ErrorKind, what: &'static str) -> io::Error {
    io::Error::new(kind, what)
}

impl FaultLog {
    /// A fresh log driven by `plan`.
    pub fn new(plan: FaultPlan) -> FaultLog {
        FaultLog {
            durable: Vec::new(),
            buffered: Vec::new(),
            rng: SplitMix64::new(plan.seed),
            plan,
            stats: FaultStats::default(),
        }
    }

    /// Append one framed record, possibly injecting a short write.
    pub(crate) fn append_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.rng.chance(self.plan.short_write_per_mille) {
            let cut = self.rng.below(frame.len() as u64) as usize;
            self.buffered.extend_from_slice(&frame[..cut]);
            self.stats.short_writes += 1;
            return Err(injected(io::ErrorKind::Other, "injected short write"));
        }
        self.buffered.extend_from_slice(frame);
        Ok(())
    }

    /// Fsync: promote buffered bytes to the durable region, unless a fault
    /// fires first.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        if self.rng.chance(self.plan.fail_flush_per_mille) {
            self.stats.failed_flushes += 1;
            return Err(injected(io::ErrorKind::Other, "injected fsync failure"));
        }
        if self.rng.chance(self.plan.late_flush_per_mille) {
            self.promote();
            self.stats.late_flushes += 1;
            return Err(injected(
                io::ErrorKind::TimedOut,
                "injected fsync timeout (data durable, ack lost)",
            ));
        }
        self.promote();
        Ok(())
    }

    fn promote(&mut self) {
        self.durable.append(&mut self.buffered);
    }

    /// Everything the running process can read back (the OS page cache view:
    /// durable plus buffered-but-unsynced bytes).
    pub(crate) fn visible(&self) -> Vec<u8> {
        let mut out = self.durable.clone();
        out.extend_from_slice(&self.buffered);
        out
    }

    /// Simulate power loss: durable bytes survive intact; of the buffered
    /// bytes, a seeded prefix (possibly empty, possibly mid-record — a torn
    /// tail) happens to have reached the platter.
    pub fn crash_image(&mut self) -> Vec<u8> {
        let mut img = self.durable.clone();
        if !self.buffered.is_empty() {
            let cut = self.rng.below(self.buffered.len() as u64 + 1) as usize;
            img.extend_from_slice(&self.buffered[..cut]);
        }
        img
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Drop all content (WAL reset after a checkpoint). Never injects.
    pub(crate) fn clear(&mut self) {
        self.durable.clear();
        self.buffered.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn chance_rates_are_sane() {
        let mut r = SplitMix64::new(7);
        assert!((0..100).all(|_| !r.chance(0)));
        assert!((0..100).all(|_| r.chance(1000)));
        let hits = (0..10_000).filter(|_| r.chance(100)).count();
        assert!((700..1300).contains(&hits), "≈10% rate, got {hits}/10000");
    }

    #[test]
    fn quiet_log_promotes_on_flush() {
        let mut log = FaultLog::new(FaultPlan::quiet(1));
        log.append_frame(b"abc").unwrap();
        log.flush().unwrap();
        assert_eq!(log.visible(), b"abc");
        // After flush, the whole image is durable: crash loses nothing.
        assert_eq!(log.crash_image(), b"abc");
        assert_eq!(log.stats(), FaultStats::default());
    }

    #[test]
    fn failed_flush_leaves_nothing_durable() {
        let plan = FaultPlan {
            seed: 3,
            short_write_per_mille: 0,
            fail_flush_per_mille: 1000,
            late_flush_per_mille: 0,
        };
        let mut log = FaultLog::new(plan);
        log.append_frame(b"abcdef").unwrap();
        assert!(log.flush().is_err());
        assert_eq!(log.stats().failed_flushes, 1);
        // Crash image is a (possibly empty) prefix of the buffered bytes.
        let img = log.crash_image();
        assert!(b"abcdef".starts_with(&img[..]));
    }

    #[test]
    fn late_flush_promotes_but_errors() {
        let plan = FaultPlan {
            seed: 3,
            short_write_per_mille: 0,
            fail_flush_per_mille: 0,
            late_flush_per_mille: 1000,
        };
        let mut log = FaultLog::new(plan);
        log.append_frame(b"xyz").unwrap();
        let err = log.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(log.crash_image(), b"xyz", "data landed despite the error");
        assert_eq!(log.stats().late_flushes, 1);
    }

    #[test]
    fn short_write_is_a_strict_prefix() {
        let plan = FaultPlan {
            seed: 11,
            short_write_per_mille: 1000,
            fail_flush_per_mille: 0,
            late_flush_per_mille: 0,
        };
        let mut log = FaultLog::new(plan);
        assert!(log.append_frame(b"0123456789").is_err());
        assert_eq!(log.stats().short_writes, 1);
        let img = log.visible();
        assert!(img.len() < 10);
        assert!(b"0123456789".starts_with(&img[..]));
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan {
            seed: 99,
            short_write_per_mille: 300,
            fail_flush_per_mille: 200,
            late_flush_per_mille: 100,
        };
        let run = |plan: FaultPlan| {
            let mut log = FaultLog::new(plan);
            let mut outcomes = Vec::new();
            for i in 0..50u8 {
                outcomes.push(log.append_frame(&[i; 16]).is_ok());
                outcomes.push(log.flush().is_ok());
            }
            (outcomes, log.crash_image(), log.stats())
        };
        assert_eq!(run(plan), run(plan));
    }
}
