//! Seeded input generation: the registrar dataset as pure functions of
//! `(seed, key)`, the Zipf quantile grid, and the shuffles that order a
//! clerk's script.
//!
//! Every row is a pure function of the seed and its key, so the model
//! ([`crate::model`]) can recompute any row without storing the table, and
//! the same seed always yields the same bytes.

/// SplitMix64: the same small PRNG `wow-storage` uses for fault plans.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2^-40 for the sizes
    /// used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash of `(seed, stream, key)` — what makes rows pure functions.
pub fn mix(seed: u64, stream: u64, key: u64) -> u64 {
    finalize(finalize(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)).wrapping_add(key))
}

/// Zipf(s) over ranks `1..=n` as an explicit CDF, so quantiles are exact.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The 0-based rank at quantile `u` in `[0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// An independent draw (used by probes, where the median is reported
    /// and a heavy tail cannot move it).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.quantile(rng.unit())
    }

    /// The midpoints of `k` equal-probability strata. A script that visits
    /// each grid point once per cycle draws from Zipf(s) exactly, yet every
    /// cycle does the same total work whatever the seed — i.i.d. draws from
    /// a heavy tail would make run-to-run throughput depend on the seed.
    pub fn grid(&self, k: usize) -> Vec<usize> {
        (0..k)
            .map(|i| self.quantile((i as f64 + 0.5) / k as f64))
            .collect()
    }
}

pub const ZIPF_S: f64 = 0.99;
pub const COURSES: u32 = 100;
/// `sid` 0..HOT are seniors with gpa 4.0 and one enrollment each, so page
/// one of all four views shows the same students.
pub const HOT: u32 = 16;
pub const GRADES: [&str; 6] = ["A", "B", "C", "D", "F", "I"];
const DEPTS: [&str; 6] = ["math", "cs", "physics", "history", "music", "bio"];

/// The two dataset sizes. The buffer pool is 1024 frames of 8 KiB; the
/// student heap plus its key index take ≈ 12.5 pages per 1000 students.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub students: u32,
    pub enrollments: u32,
}

/// Student heap + key index ≈ 1.5× the pool; every table and index ≈ 3×.
pub const SIZE_L: Size = Size {
    students: 120_000,
    enrollments: 30_000,
};
/// Student heap + key index ≈ 0.6× the pool.
pub const SIZE_S: Size = Size {
    students: 50_000,
    enrollments: 50_000,
};

impl Size {
    /// `--smoke` sizes: a tenth.
    pub fn tenth(self) -> Size {
        Size {
            students: self.students / 10,
            enrollments: self.enrollments / 10,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Student {
    pub sname: String,
    pub year: i64,
    /// gpa × 100, so both sides derive the same `f64` by one division.
    pub gpa_h: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Enroll {
    pub sid: u32,
    pub cno: i64,
    pub grade: &'static str,
}

/// The registrar data as functions of `(seed, key)`.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    pub seed: u64,
    pub size: Size,
    year_shift: u32,
    gpa_shift: u32,
}

const SYLLABLES: [&str; 16] = [
    "ka", "ri", "mo", "te", "su", "na", "lo", "vi", "da", "pe", "ho", "zu", "be", "gi", "fa", "ne",
];

fn word(mut h: u64, syllables: usize) -> String {
    let mut w = String::with_capacity(syllables * 2);
    for i in 0..syllables {
        let s = SYLLABLES[(h & 15) as usize];
        h >>= 4;
        if i == 0 {
            w.push(s.as_bytes()[0].to_ascii_uppercase() as char);
            w.push_str(&s[1..]);
        } else {
            w.push_str(s);
        }
    }
    w
}

impl Dataset {
    pub fn new(seed: u64, size: Size) -> Dataset {
        Dataset {
            seed,
            size,
            year_shift: (mix(seed, 1, 0) % 4) as u32,
            gpa_shift: (mix(seed, 2, 0) % 301) as u32,
        }
    }

    /// Years and gpas are equidistributed sequences shifted by the seed, not
    /// hashes: every seed then has the same density of seniors and of honor
    /// students along the key order, so a page of `seniors` costs the same
    /// number of base rows on every seed.
    pub fn student(&self, sid: u32) -> Student {
        let h = mix(self.seed, 3, sid as u64);
        let sname = format!("{} {}", word(h, 3), word(h >> 12, 4));
        if sid < HOT {
            return Student {
                sname,
                year: 4,
                gpa_h: 400,
            };
        }
        Student {
            sname,
            year: 1 + ((sid + self.year_shift) % 4) as i64,
            gpa_h: 100 + (sid.wrapping_mul(7919).wrapping_add(self.gpa_shift)) % 301,
        }
    }

    pub fn is_senior(&self, sid: u32) -> bool {
        sid < HOT || (sid + self.year_shift) % 4 == 3
    }

    pub fn enroll(&self, eid: u32) -> Enroll {
        let h = mix(self.seed, 4, eid as u64);
        let sid = if eid < HOT {
            eid
        } else {
            HOT + (h % (self.size.students - HOT) as u64) as u32
        };
        Enroll {
            sid,
            cno: ((h >> 32) % COURSES as u64) as i64,
            grade: GRADES[((h >> 48) % GRADES.len() as u64) as usize],
        }
    }

    /// `(title, dept, credits)`.
    pub fn course(&self, cno: u32) -> (String, &'static str, i64) {
        let h = mix(self.seed, 5, cno as u64);
        (
            format!("{} {}", word(h, 3), 100 + (h >> 12) % 400),
            DEPTS[((h >> 24) % DEPTS.len() as u64) as usize],
            1 + ((h >> 32) % 4) as i64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let bytes = |seed: u64| -> Vec<u8> {
            let d = Dataset::new(seed, SIZE_S);
            let mut out = Vec::new();
            for sid in 0..2000 {
                let s = d.student(sid);
                out.extend_from_slice(s.sname.as_bytes());
                out.extend_from_slice(&s.year.to_le_bytes());
                out.extend_from_slice(&s.gpa_h.to_le_bytes());
                let e = d.enroll(sid);
                out.extend_from_slice(&e.sid.to_le_bytes());
                out.extend_from_slice(&e.cno.to_le_bytes());
                out.extend_from_slice(e.grade.as_bytes());
            }
            out
        };
        assert_eq!(bytes(7), bytes(7));
        assert_ne!(bytes(7), bytes(8));
    }

    #[test]
    fn hot_students_are_seniors_on_the_honor_roll_with_one_enrollment() {
        let d = Dataset::new(42, SIZE_S.tenth());
        for sid in 0..HOT {
            let s = d.student(sid);
            assert_eq!((s.year, s.gpa_h), (4, 400));
            assert!(d.is_senior(sid));
        }
        let mut per_student = vec![0u32; HOT as usize];
        for eid in 0..d.size.enrollments {
            let e = d.enroll(eid);
            assert!(e.sid < d.size.students);
            if e.sid < HOT {
                per_student[e.sid as usize] += 1;
            }
        }
        assert!(per_student.iter().all(|&n| n == 1), "{per_student:?}");
    }

    #[test]
    fn years_and_gpas_are_equidistributed() {
        let d = Dataset::new(9, SIZE_S);
        let seniors = (HOT..HOT + 4000).filter(|&s| d.is_senior(s)).count();
        assert_eq!(seniors, 1000);
        for sid in HOT..HOT + 4000 {
            assert_eq!(d.is_senior(sid), d.student(sid).year == 4);
            assert!((100..=400).contains(&d.student(sid).gpa_h));
        }
    }

    #[test]
    fn zipf_quantiles_and_grid() {
        let z = Zipf::new(1000, ZIPF_S);
        assert_eq!(z.quantile(0.0), 0);
        assert_eq!(z.quantile(0.999_999_9), 999);
        // Rank 1 carries 1/H(1000, 0.99) ≈ 0.129 of the mass.
        assert_eq!(z.quantile(0.12), 0);
        assert_eq!(z.quantile(0.14), 1);
        let grid = z.grid(4);
        assert_eq!(grid.len(), 4);
        assert!(grid.windows(2).all(|w| w[0] < w[1]), "{grid:?}");
        // Draws are reproducible and skewed towards low ranks.
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let xs: Vec<usize> = (0..1000).map(|_| z.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..1000).map(|_| z.sample(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().filter(|&&x| x < 10).count() > 300);
    }

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }
}
