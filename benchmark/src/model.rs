//! The output oracle.
//!
//! Because every row is a pure function of the seed ([`crate::gen`]), the
//! extension of each view is computable without the database: `students` is
//! every `sid` in order, `seniors` and `honor_roll` are the `sid`s passing
//! the predicate in order, `transcript` is every enrollment in `eid` order
//! joined to its student. A [`WinModel`] mirrors one window's cursor over
//! that extension and [`WinModel::check`] compares a returned screenful with
//! it: row count, key order and contiguity (the expected keys are the next
//! sixteen of the extension, no gaps), every field value, and the cursor
//! position. Edits are layered on top as [`Hot`] overrides.

use crate::gen::{Dataset, HOT};
use std::collections::BTreeMap;
use std::ops::Deref;
use wow_net::Screenful;
use wow_rel::value::Value;

pub const PAGE: usize = 16;
/// Students that `mixed_durable` edits: the first sixteen pages.
pub const MIXED_HOT: u32 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    Students,
    Seniors,
    HonorRoll,
    Transcript,
}

pub const ALL_VIEWS: [View; 4] = [
    View::Students,
    View::Seniors,
    View::HonorRoll,
    View::Transcript,
];

impl View {
    pub fn name(self) -> &'static str {
        match self {
            View::Students => "students",
            View::Seniors => "seniors",
            View::HonorRoll => "honor_roll",
            View::Transcript => "transcript",
        }
    }

    pub fn quel(self) -> &'static str {
        match self {
            View::Students => "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.year, s.gpa)",
            View::Seniors => {
                "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.gpa) WHERE s.year = 4"
            }
            View::HonorRoll => {
                "RANGE OF s IS student RETRIEVE (s.sid, s.sname, s.gpa) WHERE s.gpa >= 3.5"
            }
            View::Transcript => {
                "RANGE OF s IS student RANGE OF en IS enroll \
                 RETRIEVE (en.eid, s.sid, s.sname, en.cno, en.grade) WHERE s.sid = en.sid"
            }
        }
    }

    pub fn columns(self) -> &'static [&'static str] {
        match self {
            View::Students => &["sid", "sname", "year", "gpa"],
            View::Seniors | View::HonorRoll => &["sid", "sname", "gpa"],
            View::Transcript => &["eid", "sid", "sname", "cno", "grade"],
        }
    }

    /// The form field a query-by-form jump types the `sid` bound into.
    pub fn sid_field(self) -> u16 {
        match self {
            View::Transcript => 1,
            _ => 0,
        }
    }
}

/// The dataset plus what the model needs precomputed: `transcript` in
/// student-major order.
///
/// The join has no ORDER BY, so its row order is the plan's: with the
/// enrollments as the outer side rows come in `eid` order, with the students
/// as the outer side they come by `sid` and, within a student, by `eid`.
/// Which one the optimizer picks depends on the table sizes and on whether a
/// query-by-form restriction is present, so the model accepts a page that is
/// the right slice of *either* total order.
pub struct Registrar {
    data: Dataset,
    /// `(sid, eid)` of every enrollment, sorted.
    by_sid: Vec<(u32, u32)>,
}

impl Registrar {
    pub fn new(data: Dataset) -> Registrar {
        let mut by_sid: Vec<(u32, u32)> = (0..data.size.enrollments)
            .map(|eid| (data.enroll(eid).sid, eid))
            .collect();
        by_sid.sort_unstable();
        Registrar { data, by_sid }
    }
}

impl Deref for Registrar {
    type Target = Dataset;
    fn deref(&self) -> &Dataset {
        &self.data
    }
}

/// The marker an edit workload writes into `sname`: edit number `seq`
/// rewrites student `seq % 16`.
pub fn marker(seq: u64) -> String {
    format!("mk{seq}")
}

pub fn parse_marker(sname: &str) -> Option<u64> {
    sname.strip_prefix("mk")?.parse().ok()
}

/// Fields a clerk cannot pin to one value because another connection is
/// writing them while it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loose {
    Nothing,
    /// The watcher: `sname` of the sixteen hot students is the base name or
    /// any marker for that student (which one is checked across the whole
    /// screenful by [`check_marker_consistency`]).
    HotSnames,
    /// `mixed_durable` clerk `me`: `gpa` of the other clerk's students in
    /// the hot range is any value on the base value's side of 3.5.
    ForeignGpa {
        me: u32,
    },
}

/// What one clerk knows has been written over the base data.
#[derive(Debug, Clone)]
pub struct Hot {
    pub sname: BTreeMap<u32, String>,
    pub gpa_h: BTreeMap<u32, u32>,
    pub loose: Loose,
}

impl Hot {
    pub fn new(loose: Loose) -> Hot {
        Hot {
            sname: BTreeMap::new(),
            gpa_h: BTreeMap::new(),
            loose,
        }
    }
}

fn gpa_value(gpa_h: u32) -> Value {
    Value::Float(gpa_h as f64 / 100.0)
}

/// Equal, and of the same type (`Value`'s own `==` lets `Int(4) == Float(4.0)`).
fn same(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
}

fn check_sname(data: &Registrar, hot: &Hot, sid: u32, got: &Value) -> Result<(), String> {
    let Value::Text(got) = got else {
        return Err(format!("sid {sid}: sname is {got:?}"));
    };
    let base = data.student(sid).sname;
    if hot.loose == Loose::HotSnames && sid < HOT {
        let ok = *got == base || parse_marker(got).is_some_and(|q| q % HOT as u64 == sid as u64);
        return ok
            .then_some(())
            .ok_or_else(|| format!("sid {sid}: sname {got:?} is neither base nor its marker"));
    }
    let want = hot.sname.get(&sid).unwrap_or(&base);
    (got == want)
        .then_some(())
        .ok_or_else(|| format!("sid {sid}: sname {got:?}, model {want:?}"))
}

fn check_gpa(data: &Registrar, hot: &Hot, sid: u32, got: &Value) -> Result<(), String> {
    let base = data.student(sid).gpa_h;
    if let Loose::ForeignGpa { me } = hot.loose {
        if sid < MIXED_HOT && sid % 2 != me {
            let Value::Float(g) = got else {
                return Err(format!("sid {sid}: gpa is {got:?}"));
            };
            let ok = (1.0..=4.0).contains(g) && (*g >= 3.5) == (base >= 350);
            return ok
                .then_some(())
                .ok_or_else(|| format!("sid {sid}: gpa {g} left its side of 3.5"));
        }
    }
    let want = gpa_value(*hot.gpa_h.get(&sid).unwrap_or(&base));
    same(got, &want)
        .then_some(())
        .ok_or_else(|| format!("sid {sid}: gpa {got:?}, model {want:?}"))
}

fn check_exact(what: &str, key: u32, got: &Value, want: Value) -> Result<(), String> {
    same(got, &want)
        .then_some(())
        .ok_or_else(|| format!("key {key}: {what} {got:?}, model {want:?}"))
}

/// Compare one returned row with the model's row for `key` (a `sid`, or an
/// `eid` for `transcript`).
fn check_row(
    data: &Registrar,
    hot: &Hot,
    view: View,
    key: u32,
    row: &[Value],
) -> Result<(), String> {
    if row.len() != view.columns().len() {
        return Err(format!("key {key}: {} fields", row.len()));
    }
    match view {
        View::Students => {
            check_exact("sid", key, &row[0], Value::Int(key as i64))?;
            check_sname(data, hot, key, &row[1])?;
            check_exact("year", key, &row[2], Value::Int(data.student(key).year))?;
            check_gpa(data, hot, key, &row[3])
        }
        View::Seniors | View::HonorRoll => {
            check_exact("sid", key, &row[0], Value::Int(key as i64))?;
            check_sname(data, hot, key, &row[1])?;
            check_gpa(data, hot, key, &row[2])
        }
        View::Transcript => {
            let e = data.enroll(key);
            check_exact("eid", key, &row[0], Value::Int(key as i64))?;
            check_exact("sid", key, &row[1], Value::Int(e.sid as i64))?;
            check_sname(data, hot, e.sid, &row[2])?;
            check_exact("cno", key, &row[3], Value::Int(e.cno))?;
            check_exact("grade", key, &row[4], Value::text(e.grade))
        }
    }
}

/// One window's cursor over its view's extension, restricted to
/// `sid >= lo` after a query-by-form jump.
#[derive(Debug, Clone)]
pub struct WinModel {
    pub view: View,
    lo: u32,
    /// The first keys of the (restricted) extension, extended on demand.
    keys: Vec<u32>,
    /// The next key not yet considered for `keys`.
    candidate: u32,
    page: usize,
    pos: usize,
}

impl WinModel {
    pub fn open(view: View) -> WinModel {
        WinModel {
            view,
            lo: 0,
            keys: Vec::new(),
            candidate: 0,
            page: 0,
            pos: 0,
        }
    }

    /// Restrict to `sid >= lo` (`lo = 0` clears the restriction); the cursor
    /// returns to the first row either way.
    pub fn jump(&mut self, lo: u32) {
        *self = WinModel {
            lo,
            ..WinModel::open(self.view)
        };
    }

    fn matches(&self, data: &Registrar, key: u32) -> bool {
        match self.view {
            View::Students => key >= self.lo,
            View::Seniors => key >= self.lo && data.is_senior(key),
            View::HonorRoll => key >= self.lo && data.student(key).gpa_h >= 350,
            View::Transcript => data.enroll(key).sid >= self.lo,
        }
    }

    /// Make sure the page after the current one is known too. The scripts
    /// stay far from the end of every view, so running out of keys is a bug
    /// in the script, not a state to model.
    fn ensure(&mut self, data: &Registrar, pages: usize) {
        let limit = match self.view {
            View::Transcript => data.size.enrollments,
            _ => data.size.students,
        };
        if self.candidate < self.lo && self.view != View::Transcript {
            self.candidate = self.lo;
        }
        while self.keys.len() < pages * PAGE {
            assert!(
                self.candidate < limit,
                "script ran off the end of {}",
                self.view.name()
            );
            if self.matches(data, self.candidate) {
                self.keys.push(self.candidate);
            }
            self.candidate += 1;
        }
    }

    /// Each move returns what the server's `moved` flag must be.
    pub fn next_page(&mut self) -> bool {
        self.page += 1;
        self.pos = 0;
        true
    }

    pub fn prev_page(&mut self) -> bool {
        if self.page == 0 {
            let moved = self.pos != 0;
            self.pos = 0;
            return moved;
        }
        self.page -= 1;
        self.pos = 0;
        true
    }

    pub fn next_row(&mut self) -> bool {
        if self.pos + 1 < PAGE {
            self.pos += 1;
        } else {
            self.page += 1;
            self.pos = 0;
        }
        true
    }

    pub fn prev_row(&mut self) -> bool {
        if self.pos > 0 {
            self.pos -= 1;
            return true;
        }
        if self.page == 0 {
            return false;
        }
        self.page -= 1;
        self.pos = PAGE - 1;
        true
    }

    pub fn page(&self) -> usize {
        self.page
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The `sid` under the cursor (`students`-shaped views only).
    pub fn current_key(&mut self, data: &Registrar) -> u32 {
        self.ensure(data, self.page + 2);
        self.keys[self.page * PAGE + self.pos]
    }

    /// Verify a screenful against the model's current page.
    pub fn check(&mut self, data: &Registrar, hot: &Hot, screen: &Screenful) -> Result<(), String> {
        self.ensure(data, self.page + 2);
        let cols = self.view.columns();
        if screen.columns.len() != cols.len()
            || screen.columns.iter().zip(cols).any(|(a, b)| a != b)
        {
            return Err(format!("columns {:?}", screen.columns));
        }
        if screen.rows.len() != PAGE {
            return Err(format!("{} rows on the page", screen.rows.len()));
        }
        let rows_match = |keys: &mut dyn Iterator<Item = u32>| {
            keys.zip(&screen.rows)
                .try_for_each(|(key, row)| check_row(data, hot, self.view, key, row))
        };
        let from = self.page * PAGE;
        let in_key_order = rows_match(&mut self.keys[from..from + PAGE].iter().copied());
        if in_key_order.is_err() && self.view == View::Transcript {
            let start = data.by_sid.partition_point(|&(sid, _)| sid < self.lo) + from;
            let by_student = data.by_sid.get(start..start + PAGE);
            let by_student = by_student.ok_or("script ran off the end of transcript")?;
            rows_match(&mut by_student.iter().map(|&(_, eid)| eid)).map_err(|e| {
                format!("neither join order matches ({e}; in eid order: {in_key_order:?})")
            })?;
        } else {
            in_key_order?;
        }
        let want_pos = (self.page * PAGE + self.pos) as u64;
        if screen.current != Some(self.pos as u16) || screen.position != Some(want_pos) {
            return Err(format!(
                "cursor at {:?}/{:?}, model {}/{want_pos}",
                screen.current, screen.position, self.pos
            ));
        }
        if screen.total.is_some() || screen.stale || !screen.mode.eq_ignore_ascii_case("browse") {
            return Err(format!(
                "total {:?} stale {} mode {}",
                screen.total, screen.stale, screen.mode
            ));
        }
        Ok(())
    }
}

/// The `(sid, sname)` pairs a page-one screenful of `view` shows.
fn hot_snames(view: View, screen: &Screenful) -> Vec<(u64, &str)> {
    let (sid_col, name_col) = match view {
        View::Transcript => (1, 2),
        _ => (0, 1),
    };
    screen
        .rows
        .iter()
        .filter_map(|r| match (r.get(sid_col), r.get(name_col)) {
            (Some(Value::Int(s)), Some(Value::Text(n))) => Some((*s as u64, n.as_str())),
            _ => None,
        })
        .collect()
}

/// The newest marker on a page-one screenful, if any.
pub fn newest_marker(view: View, screen: &Screenful) -> Option<u64> {
    hot_snames(view, screen)
        .iter()
        .filter_map(|(_, n)| parse_marker(n))
        .max()
}

/// A pushed screenful must be the state after exactly one commit, never a
/// blend: if its newest marker is `m`, student `s` must show the newest
/// marker `<= m` that belongs to `s` (edits rotate over the sixteen hot
/// students), or its base name if `s` has not been edited by then.
pub fn check_marker_consistency(
    data: &Registrar,
    view: View,
    screen: &Screenful,
) -> Result<(), String> {
    let Some(newest) = newest_marker(view, screen) else {
        return Ok(());
    };
    for (sid, sname) in hot_snames(view, screen) {
        let behind = (newest + HOT as u64 - sid) % HOT as u64;
        let want = if newest >= behind {
            marker(newest - behind)
        } else {
            data.student(sid as u32).sname
        };
        if sname != want {
            return Err(format!(
                "blend: newest marker {newest}, sid {sid} shows {sname:?}, model {want:?}"
            ));
        }
    }
    Ok(())
}

/// The final-state oracle: one aggregate over the whole `student` table plus
/// every field of the hot range, compared with the base data under `hot`.
/// `rows` answers [`HOT_ROWS_QUEL`] and `sums` answers [`CHECKSUM_QUEL`].
pub const CHECKSUM_QUEL: &str =
    "RANGE OF s IS student RETRIEVE (n = COUNT(s.sid), y = SUM(s.year), g = SUM(s.gpa))";
pub const HOT_ROWS_QUEL: &str = "RANGE OF s IS student \
     RETRIEVE (s.sid, s.sname, s.year, s.gpa) WHERE s.sid < 256 SORT BY s.sid";

pub fn check_final_state(
    data: &Registrar,
    hot: &Hot,
    sums: &[Vec<Value>],
    rows: &[Vec<Value>],
) -> Result<(), String> {
    let (mut years, mut gpa_h) = (0i64, 0u64);
    for sid in 0..data.size.students {
        let s = data.student(sid);
        years += s.year;
        gpa_h += *hot.gpa_h.get(&sid).unwrap_or(&s.gpa_h) as u64;
    }
    let [sum_row] = sums else {
        return Err(format!("checksum returned {} rows", sums.len()));
    };
    let as_f64 = |v: &Value| match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    };
    let want = [
        data.size.students as f64,
        years as f64,
        gpa_h as f64 / 100.0,
    ];
    for (i, want) in want.iter().enumerate() {
        let got = sum_row.get(i).map(as_f64).unwrap_or(f64::NAN);
        // The gpa sum is a float sum in table order; allow rounding only.
        if (got - want).abs() > want.abs() * 1e-9 {
            return Err(format!("checksum column {i}: {got}, model {want}"));
        }
    }
    let hot_rows = MIXED_HOT.min(data.size.students) as usize;
    if rows.len() != hot_rows {
        return Err(format!("hot range returned {} rows", rows.len()));
    }
    let exact = Hot {
        loose: Loose::Nothing,
        ..hot.clone()
    };
    for (sid, row) in rows.iter().enumerate() {
        check_row(data, &exact, View::Students, sid as u32, row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SIZE_S;

    fn screen_of(data: &Registrar, m: &mut WinModel, hot: &Hot) -> Screenful {
        m.ensure(data, m.page + 2);
        let rows = m.keys[m.page * PAGE..(m.page + 1) * PAGE]
            .iter()
            .map(|&k| {
                let name = |sid: u32| {
                    Value::Text(
                        hot.sname
                            .get(&sid)
                            .cloned()
                            .unwrap_or(data.student(sid).sname),
                    )
                };
                let s = data.student(k);
                match m.view {
                    View::Students => vec![
                        Value::Int(k as i64),
                        name(k),
                        Value::Int(s.year),
                        gpa_value(s.gpa_h),
                    ],
                    View::Seniors | View::HonorRoll => {
                        vec![Value::Int(k as i64), name(k), gpa_value(s.gpa_h)]
                    }
                    View::Transcript => {
                        let e = data.enroll(k);
                        vec![
                            Value::Int(k as i64),
                            Value::Int(e.sid as i64),
                            name(e.sid),
                            Value::Int(e.cno),
                            Value::text(e.grade),
                        ]
                    }
                }
            })
            .collect();
        Screenful {
            columns: m.view.columns().iter().map(|c| c.to_string()).collect(),
            rows,
            current: Some(m.pos as u16),
            position: Some((m.page * PAGE + m.pos) as u64),
            total: None,
            mode: "browse".into(),
            stale: false,
        }
    }

    #[test]
    fn model_accepts_its_own_pages_and_rejects_tampering() {
        let data = Registrar::new(Dataset::new(11, SIZE_S.tenth()));
        let hot = Hot::new(Loose::Nothing);
        for view in ALL_VIEWS {
            let mut m = WinModel::open(view);
            assert!(m.next_page());
            assert!(m.next_row());
            m.jump(700);
            m.next_page();
            let good = screen_of(&data, &mut m, &hot);
            m.check(&data, &hot, &good).unwrap();
            let mut gap = good.clone();
            gap.rows.remove(3);
            assert!(m.check(&data, &hot, &gap).is_err(), "missing row");
            let mut swapped = good.clone();
            swapped.rows.swap(1, 2);
            assert!(m.check(&data, &hot, &swapped).is_err(), "key order");
            let mut wrong = good.clone();
            wrong.rows[5][1] = Value::Int(-1);
            assert!(m.check(&data, &hot, &wrong).is_err(), "field value");
            let mut moved = good.clone();
            moved.position = Some(0);
            assert!(m.check(&data, &hot, &moved).is_err(), "cursor position");
        }
    }

    #[test]
    fn cursor_moves_mirror_the_indexed_cursor() {
        let mut m = WinModel::open(View::Students);
        assert!(!m.prev_row(), "nothing before the first row");
        assert!(!m.prev_page());
        for _ in 0..PAGE {
            assert!(m.next_row());
        }
        assert_eq!((m.page(), m.pos()), (1, 0));
        assert!(m.prev_row());
        assert_eq!((m.page(), m.pos()), (0, PAGE - 1));
        assert!(m.prev_page(), "on page one it returns to the first row");
        assert_eq!((m.page(), m.pos()), (0, 0));
    }

    #[test]
    fn marker_consistency_catches_a_blend() {
        let data = Registrar::new(Dataset::new(3, SIZE_S.tenth()));
        let mut hot = Hot::new(Loose::Nothing);
        // Edits 0..=20 have committed: students 0..=4 show 16..=20, the
        // rest show 5..=15.
        for seq in 0..=20u64 {
            hot.sname.insert((seq % 16) as u32, marker(seq));
        }
        for view in ALL_VIEWS {
            let mut m = WinModel::open(view);
            let good = screen_of(&data, &mut m, &hot);
            assert_eq!(newest_marker(view, &good), Some(20));
            check_marker_consistency(&data, view, &good).unwrap();
            let loose = Hot::new(Loose::HotSnames);
            m.check(&data, &loose, &good).unwrap();
            // Student 2 still showing edit 2 while student 4 shows edit 20.
            let mut blend = good.clone();
            let name_col = if view == View::Transcript { 2 } else { 1 };
            blend.rows[2][name_col] = Value::Text(marker(2));
            m.check(&data, &loose, &blend).unwrap();
            assert!(check_marker_consistency(&data, view, &blend).is_err());
        }
    }

    #[test]
    fn final_state_checks_sums_and_hot_rows() {
        let data = Registrar::new(Dataset::new(5, SIZE_S.tenth()));
        let mut hot = Hot::new(Loose::ForeignGpa { me: 0 });
        hot.gpa_h.insert(17, 123);
        hot.sname.insert(3, marker(19));
        let rows: Vec<Vec<Value>> = (0..MIXED_HOT)
            .map(|sid| {
                let s = data.student(sid);
                vec![
                    Value::Int(sid as i64),
                    Value::Text(hot.sname.get(&sid).cloned().unwrap_or(s.sname)),
                    Value::Int(s.year),
                    gpa_value(*hot.gpa_h.get(&sid).unwrap_or(&s.gpa_h)),
                ]
            })
            .collect();
        let (mut y, mut g) = (0i64, 0.0f64);
        for sid in 0..data.size.students {
            let s = data.student(sid);
            y += s.year;
            g += *hot.gpa_h.get(&sid).unwrap_or(&s.gpa_h) as f64 / 100.0;
        }
        let sums = vec![vec![
            Value::Int(data.size.students as i64),
            Value::Int(y),
            Value::Float(g),
        ]];
        check_final_state(&data, &hot, &sums, &rows).unwrap();
        let mut lost = rows.clone();
        lost[17][3] = gpa_value(data.student(17).gpa_h);
        assert!(check_final_state(&data, &hot, &sums, &lost).is_err());
        let short = vec![vec![
            Value::Int(data.size.students as i64 - 1),
            Value::Int(y),
            Value::Float(g),
        ]];
        assert!(check_final_state(&data, &hot, &short, &rows).is_err());
    }
}
