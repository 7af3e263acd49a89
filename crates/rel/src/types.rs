//! The data types of the relational engine.

use std::fmt;

/// Column data types.
///
/// The set matches what an early-1980s forms system exposed: integers,
/// floating point, character strings, booleans, and calendar dates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Variable-length UTF-8 text.
    Text,
    /// Boolean.
    Bool,
    /// Calendar date, stored as days since 1970-01-01 (may be negative).
    Date,
}

impl DataType {
    /// The keyword used in `CREATE TABLE` and shown in form field hints.
    pub fn keyword(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Date => "DATE",
        }
    }

    /// Parse a type keyword (case-insensitive).
    pub fn from_keyword(word: &str) -> Option<DataType> {
        match word.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" => Some(DataType::Int),
            "FLOAT" | "REAL" | "DOUBLE" => Some(DataType::Float),
            "TEXT" | "CHAR" | "VARCHAR" | "STRING" => Some(DataType::Text),
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "DATE" => Some(DataType::Date),
            _ => None,
        }
    }

    /// Whether values of this type are numeric (arithmetic works on them).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// Whether values of the two types can be compared: the same type, or
    /// two numeric ones.
    pub fn comparable_with(self, other: DataType) -> bool {
        self == other || (self.is_numeric() && other.is_numeric())
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Convert a `(year, month, day)` triple to days since 1970-01-01.
///
/// Valid for years 1..=9999 with proleptic-Gregorian rules; returns `None`
/// for out-of-range components.
pub fn ymd_to_days(year: i32, month: u32, day: u32) -> Option<i32> {
    if !(1..=9999).contains(&year) || !(1..=12).contains(&month) {
        return None;
    }
    if day < 1 || day > days_in_month(year, month) {
        return None;
    }
    // Civil-from-days algorithm (Howard Hinnant), inverted.
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (month as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    Some((era * 146097 + doe - 719468) as i32)
}

/// Convert days since 1970-01-01 back to `(year, month, day)`.
pub fn days_to_ymd(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = if m <= 2 { y + 1 } else { y } as i32;
    (year, m, d)
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = days_to_ymd(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Parse `YYYY-MM-DD` into days-since-epoch.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    let y: i32 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    ymd_to_days(y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
            DataType::Date,
        ] {
            assert_eq!(DataType::from_keyword(ty.keyword()), Some(ty));
        }
        assert_eq!(DataType::from_keyword("integer"), Some(DataType::Int));
        assert_eq!(DataType::from_keyword("blob"), None);
    }

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(ymd_to_days(1970, 1, 1), Some(0));
        assert_eq!(days_to_ymd(0), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // SIGMOD '83 ran May 23-26, 1983 in San Jose.
        let d = ymd_to_days(1983, 5, 23).unwrap();
        assert_eq!(days_to_ymd(d), (1983, 5, 23));
        assert_eq!(format_date(d), "1983-05-23");
        assert_eq!(parse_date("1983-05-23"), Some(d));
    }

    #[test]
    fn leap_years_handled() {
        assert!(ymd_to_days(2000, 2, 29).is_some());
        assert!(ymd_to_days(1900, 2, 29).is_none());
        assert!(ymd_to_days(2024, 2, 29).is_some());
        assert!(ymd_to_days(2023, 2, 29).is_none());
    }

    #[test]
    fn round_trip_many_days() {
        for days in (-200_000..200_000).step_by(997) {
            let (y, m, d) = days_to_ymd(days);
            assert_eq!(ymd_to_days(y, m, d), Some(days), "days={days}");
        }
    }

    #[test]
    fn invalid_dates_rejected() {
        assert_eq!(parse_date("1983-13-01"), None);
        assert_eq!(parse_date("1983-00-01"), None);
        assert_eq!(parse_date("1983-01-32"), None);
        assert_eq!(parse_date("83-01-01-09"), None);
        assert_eq!(parse_date("gibberish"), None);
    }

    #[test]
    fn numeric_classification() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(!DataType::Text.is_numeric());
        assert!(!DataType::Date.is_numeric());
    }
}
