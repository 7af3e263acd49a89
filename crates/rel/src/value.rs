//! Runtime values, comparisons, and byte encodings.
//!
//! Two encodings exist, for two different jobs:
//!
//! * [`Value::encode_key`] — an **order-preserving** encoding used in index
//!   keys: comparing encoded byte strings with `memcmp` gives the same
//!   result as comparing the values. Nulls sort first; type tags keep
//!   heterogeneous composites unambiguous.
//! * Row serialization ([`encode_row`] / [`decode_row`]) — a compact,
//!   self-describing format used for heap records.

use crate::error::{RelError, RelResult};
use crate::types::{format_date, parse_date, DataType};
use std::cmp::Ordering;
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// The null value (unknown).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// The value's type, or `None` for null.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// Whether the value is null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value is acceptable for a column of type `ty`
    /// (ints silently widen to float columns).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int)
                | (Value::Int(_), DataType::Float)
                | (Value::Float(_), DataType::Float)
                | (Value::Text(_), DataType::Text)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Date(_), DataType::Date)
        )
    }

    /// Coerce to the column type (int→float widening; text that parses as
    /// `YYYY-MM-DD` narrows to a date, which is how date literals written as
    /// strings reach date columns); error otherwise.
    pub fn coerce_to(self, ty: DataType) -> RelResult<Value> {
        match (&self, ty) {
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Text(s), DataType::Date) => {
                parse_date(s)
                    .map(Value::Date)
                    .ok_or_else(|| RelError::TypeMismatch {
                        expected: "DATE (YYYY-MM-DD)".to_string(),
                        got: format!("\"{s}\""),
                    })
            }
            _ if self.conforms_to(ty) => Ok(self),
            _ => Err(RelError::TypeMismatch {
                expected: ty.keyword().to_string(),
                got: self.type_name().to_string(),
            }),
        }
    }

    /// Human-readable type name (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Int(_) => "INT",
            Value::Float(_) => "FLOAT",
            Value::Text(_) => "TEXT",
            Value::Bool(_) => "BOOL",
            Value::Date(_) => "DATE",
        }
    }

    /// Numeric view (ints and floats), for arithmetic.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL-style comparison: `None` when either side is null, otherwise the
    /// ordering. Ints and floats compare numerically. The operands must be
    /// comparable ([`DataType::comparable_with`]): the binder
    /// ([`crate::bind`]) refuses every other pair before a plan runs, and a
    /// debug build asserts it here, so a path that skips the binder fails
    /// its tests.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        let (Some(a), Some(b)) = (self.data_type(), other.data_type()) else {
            return None;
        };
        debug_assert!(
            a.comparable_with(b),
            "unbound comparison {self:?} vs {other:?}"
        );
        Some(self.total_cmp(other))
    }

    /// Total order over all values (nulls first, then by type tag, then by
    /// value). Used by `SORT BY` so that sorting never fails.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            // Heterogeneous: order by tag so the order is total.
            _ => self.tag().cmp(&other.tag()),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Text(_) => 3,
            Value::Bool(_) => 4,
            Value::Date(_) => 5,
        }
    }

    /// Append the order-preserving key encoding of this value to `out`.
    ///
    /// Layout: 1 tag byte, then a per-type payload whose lexicographic
    /// order matches value order. Ints and floats share numeric tags so
    /// `1` and `1.0` encode comparably only within their own type — key
    /// columns have a single declared type, so this never arises in
    /// practice. Text is escaped (`0x00 → 0x00 0xFF`) and terminated with
    /// `0x00 0x00` so that prefixes sort before extensions.
    pub fn encode_key(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0x00),
            Value::Int(i) => {
                out.push(0x10);
                // Flip the sign bit so negative < positive in memcmp order.
                out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
            }
            Value::Float(f) => {
                out.push(0x10); // same family tag as Int: numeric
                out.extend_from_slice(&encode_f64(*f).to_be_bytes());
            }
            Value::Text(s) => {
                out.push(0x20);
                for &b in s.as_bytes() {
                    if b == 0x00 {
                        out.extend_from_slice(&[0x00, 0xFF]);
                    } else {
                        out.push(b);
                    }
                }
                out.extend_from_slice(&[0x00, 0x00]);
            }
            Value::Bool(b) => {
                out.push(0x30);
                out.push(*b as u8);
            }
            Value::Date(d) => {
                out.push(0x40);
                out.extend_from_slice(&((*d as u32) ^ (1 << 31)).to_be_bytes());
            }
        }
    }

    /// Encode a composite key from several values.
    pub fn encode_composite(values: &[Value]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 9);
        for v in values {
            v.encode_key(&mut out);
        }
        out
    }

    /// Parse a string as a value of type `ty`, as a form field would.
    /// Empty input is null.
    pub fn parse_as(input: &str, ty: DataType) -> RelResult<Value> {
        let s = input.trim();
        if s.is_empty() {
            return Ok(Value::Null);
        }
        let err = || RelError::TypeMismatch {
            expected: ty.keyword().to_string(),
            got: format!("\"{s}\""),
        };
        match ty {
            DataType::Int => s.parse::<i64>().map(Value::Int).map_err(|_| err()),
            DataType::Float => s.parse::<f64>().map(Value::Float).map_err(|_| err()),
            DataType::Text => Ok(Value::Text(s.to_string())),
            DataType::Bool => match s.to_ascii_lowercase().as_str() {
                "true" | "t" | "yes" | "y" | "1" => Ok(Value::Bool(true)),
                "false" | "f" | "no" | "n" | "0" => Ok(Value::Bool(false)),
                _ => Err(err()),
            },
            DataType::Date => parse_date(s).map(Value::Date).ok_or_else(err),
        }
    }
}

/// IEEE-754 total-order trick: flip all bits of negatives, flip only the
/// sign bit of non-negatives; the resulting u64s sort like the floats.
fn encode_f64(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Date(d) => f.write_str(&format_date(*d)),
        }
    }
}

// ---------------------------------------------------------------------------
// Row serialization
// ---------------------------------------------------------------------------

/// Serialize a row of values into a compact self-describing byte string.
pub fn encode_row(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8 + 2);
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
            Value::Date(d) => {
                out.push(5);
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
    }
    out
}

/// Decode only the columns listed in `wanted` (sorted, deduplicated) from an
/// encoded row, calling `emit(col, value)` for each. Unwanted columns are
/// skipped without decoding — text columns in particular are stepped over by
/// length, with no UTF-8 validation and no `String` allocation. The walk
/// stops as soon as the last wanted column has been emitted, so only the
/// prefix actually read is validated; full-row validation (including the
/// trailing-bytes check) is [`decode_row`]'s job.
///
/// This is the late-materialization primitive of the vectorized executor: a
/// selective scan decodes just the predicate columns up front and the rest
/// only for rows that survive the filter.
pub fn decode_row_cols(
    bytes: &[u8],
    wanted: &[usize],
    mut emit: impl FnMut(usize, Value),
) -> RelResult<()> {
    let corrupt = || RelError::Storage(wow_storage::StorageError::Corrupt("bad row encoding"));
    if bytes.len() < 2 {
        return Err(corrupt());
    }
    let n = u16::from_le_bytes(bytes[..2].try_into().unwrap()) as usize;
    let mut pos = 2usize;
    let mut next = 0usize;
    for col in 0..n {
        // Once every wanted column is emitted, skip the tail entirely —
        // the full trailing-bytes validation is [`decode_row`]'s job.
        if next == wanted.len() {
            return Ok(());
        }
        let want = wanted.get(next) == Some(&col);
        let tag = *bytes.get(pos).ok_or_else(corrupt)?;
        pos += 1;
        match tag {
            0 => {
                if want {
                    emit(col, Value::Null);
                }
            }
            1 => {
                let s = bytes.get(pos..pos + 8).ok_or_else(corrupt)?;
                if want {
                    emit(col, Value::Int(i64::from_le_bytes(s.try_into().unwrap())));
                }
                pos += 8;
            }
            2 => {
                let s = bytes.get(pos..pos + 8).ok_or_else(corrupt)?;
                if want {
                    emit(
                        col,
                        Value::Float(f64::from_bits(u64::from_le_bytes(s.try_into().unwrap()))),
                    );
                }
                pos += 8;
            }
            3 => {
                let s = bytes.get(pos..pos + 4).ok_or_else(corrupt)?;
                let len = u32::from_le_bytes(s.try_into().unwrap()) as usize;
                pos += 4;
                let s = bytes.get(pos..pos + len).ok_or_else(corrupt)?;
                if want {
                    emit(
                        col,
                        Value::Text(String::from_utf8(s.to_vec()).map_err(|_| corrupt())?),
                    );
                }
                pos += len;
            }
            4 => {
                let b = *bytes.get(pos).ok_or_else(corrupt)?;
                if want {
                    emit(col, Value::Bool(b != 0));
                }
                pos += 1;
            }
            5 => {
                let s = bytes.get(pos..pos + 4).ok_or_else(corrupt)?;
                if want {
                    emit(col, Value::Date(i32::from_le_bytes(s.try_into().unwrap())));
                }
                pos += 4;
            }
            _ => return Err(corrupt()),
        }
        if want {
            next += 1;
        }
    }
    if pos != bytes.len() {
        return Err(corrupt());
    }
    Ok(())
}

/// Inverse of [`encode_row`].
pub fn decode_row(bytes: &[u8]) -> RelResult<Vec<Value>> {
    let corrupt = || RelError::Storage(wow_storage::StorageError::Corrupt("bad row encoding"));
    if bytes.len() < 2 {
        return Err(corrupt());
    }
    let n = u16::from_le_bytes(bytes[..2].try_into().unwrap()) as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 2usize;
    for _ in 0..n {
        let tag = *bytes.get(pos).ok_or_else(corrupt)?;
        pos += 1;
        let v = match tag {
            0 => Value::Null,
            1 => {
                let s = bytes.get(pos..pos + 8).ok_or_else(corrupt)?;
                pos += 8;
                Value::Int(i64::from_le_bytes(s.try_into().unwrap()))
            }
            2 => {
                let s = bytes.get(pos..pos + 8).ok_or_else(corrupt)?;
                pos += 8;
                Value::Float(f64::from_bits(u64::from_le_bytes(s.try_into().unwrap())))
            }
            3 => {
                let s = bytes.get(pos..pos + 4).ok_or_else(corrupt)?;
                let len = u32::from_le_bytes(s.try_into().unwrap()) as usize;
                pos += 4;
                let s = bytes.get(pos..pos + len).ok_or_else(corrupt)?;
                pos += len;
                Value::Text(String::from_utf8(s.to_vec()).map_err(|_| corrupt())?)
            }
            4 => {
                let b = *bytes.get(pos).ok_or_else(corrupt)?;
                pos += 1;
                Value::Bool(b != 0)
            }
            5 => {
                let s = bytes.get(pos..pos + 4).ok_or_else(corrupt)?;
                pos += 4;
                Value::Date(i32::from_le_bytes(s.try_into().unwrap()))
            }
            _ => return Err(corrupt()),
        };
        out.push(v);
    }
    if pos != bytes.len() {
        return Err(corrupt());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int(-5),
            Value::Int(0),
            Value::Int(42),
            Value::Float(-1.5),
            Value::Float(std::f64::consts::PI),
            Value::text(""),
            Value::text("hello"),
            Value::Bool(false),
            Value::Bool(true),
            Value::Date(4890),
        ]
    }

    #[test]
    fn row_round_trip() {
        let vals = sample_values();
        let bytes = encode_row(&vals);
        assert_eq!(decode_row(&bytes).unwrap(), vals);
    }

    #[test]
    fn decode_row_cols_matches_full_decode_per_column() {
        let vals = sample_values();
        let bytes = encode_row(&vals);
        // Every single-column subset, skipping across every type.
        for (want, val) in vals.iter().enumerate() {
            let mut got = Vec::new();
            decode_row_cols(&bytes, &[want], |c, v| got.push((c, v))).unwrap();
            assert_eq!(got, vec![(want, val.clone())]);
        }
        // A sparse multi-column subset, in order.
        let mut got = Vec::new();
        decode_row_cols(&bytes, &[1, 6, 10], |c, v| got.push((c, v))).unwrap();
        assert_eq!(
            got,
            vec![
                (1, Value::Int(-5)),
                (6, Value::text("")),
                (10, Value::Date(4890)),
            ]
        );
        // Asking for every column reproduces decode_row.
        let all: Vec<usize> = (0..vals.len()).collect();
        let mut got = Vec::new();
        decode_row_cols(&bytes, &all, |_, v| got.push(v)).unwrap();
        assert_eq!(got, vals);
    }

    #[test]
    fn decode_row_cols_validates_the_prefix_it_reads() {
        let bytes = encode_row(&sample_values());
        // The walk stops after the last wanted column: damage past it is
        // not this function's job to catch (decode_row validates fully).
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(decode_row_cols(&bad, &[], |_, _| {}).is_ok());
        assert!(decode_row_cols(&bad[..bad.len() - 7], &[0], |_, _| {}).is_ok());
        // But truncation inside or before a wanted column is caught:
        // col 1 is an Int whose 8 payload bytes are cut off here.
        assert!(decode_row_cols(&bytes[..4], &[1], |_, _| {}).is_err());
        // A wanted column past the end forces a full (validating) walk.
        assert!(decode_row_cols(&bad, &[42], |_, _| {}).is_err());
        // Columns past the end of the row are simply never emitted.
        let mut got = Vec::new();
        decode_row_cols(&bytes, &[42], |c, _| got.push(c)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn empty_row_round_trips() {
        assert_eq!(decode_row(&encode_row(&[])).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn truncated_row_is_error() {
        let bytes = encode_row(&sample_values());
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(decode_row(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_row(&padded).is_err());
    }

    #[test]
    fn key_encoding_orders_ints() {
        let mut last: Option<Vec<u8>> = None;
        for i in [i64::MIN, -1_000_000, -1, 0, 1, 7, 1_000_000, i64::MAX] {
            let mut k = Vec::new();
            Value::Int(i).encode_key(&mut k);
            if let Some(prev) = &last {
                assert!(prev < &k, "ordering broken at {i}");
            }
            last = Some(k);
        }
    }

    #[test]
    fn key_encoding_orders_floats() {
        let mut last: Option<Vec<u8>> = None;
        for f in [
            f64::NEG_INFINITY,
            -1e100,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            1e100,
            f64::INFINITY,
        ] {
            let mut k = Vec::new();
            Value::Float(f).encode_key(&mut k);
            if let Some(prev) = &last {
                assert!(prev <= &k, "ordering broken at {f}");
            }
            last = Some(k);
        }
    }

    #[test]
    fn key_encoding_orders_text_with_embedded_nul() {
        let a = Value::text("ab");
        let b = Value::text("ab\0");
        let c = Value::text("ab\0x");
        let d = Value::text("abc");
        let keys: Vec<Vec<u8>> = [a, b, c, d]
            .iter()
            .map(|v| {
                let mut k = Vec::new();
                v.encode_key(&mut k);
                k
            })
            .collect();
        assert!(keys[0] < keys[1]);
        assert!(keys[1] < keys[2]);
        assert!(keys[2] < keys[3]);
    }

    #[test]
    fn null_sorts_before_everything_in_keys() {
        let mut null_key = Vec::new();
        Value::Null.encode_key(&mut null_key);
        for v in sample_values().into_iter().filter(|v| !v.is_null()) {
            let mut k = Vec::new();
            v.encode_key(&mut k);
            assert!(null_key < k, "null must sort before {v:?}");
        }
    }

    #[test]
    fn composite_key_orders_lexicographically() {
        let k1 = Value::encode_composite(&[Value::text("a"), Value::Int(2)]);
        let k2 = Value::encode_composite(&[Value::text("a"), Value::Int(10)]);
        let k3 = Value::encode_composite(&[Value::text("b"), Value::Int(0)]);
        assert!(k1 < k2);
        assert!(k2 < k3);
    }

    #[test]
    fn compare_follows_sql_null_semantics() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn parse_as_all_types() {
        assert_eq!(
            Value::parse_as("42", DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::parse_as("-1.5", DataType::Float).unwrap(),
            Value::Float(-1.5)
        );
        assert_eq!(
            Value::parse_as(" padded ", DataType::Text).unwrap(),
            Value::text("padded")
        );
        assert_eq!(
            Value::parse_as("yes", DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::parse_as("1983-05-23", DataType::Date).unwrap(),
            Value::Date(4890)
        );
        assert_eq!(Value::parse_as("", DataType::Int).unwrap(), Value::Null);
        assert!(Value::parse_as("abc", DataType::Int).is_err());
        assert!(Value::parse_as("maybe", DataType::Bool).is_err());
        assert!(Value::parse_as("1983/05/23", DataType::Date).is_err());
    }

    #[test]
    fn coercion_widens_int_to_float() {
        assert_eq!(
            Value::Int(3).coerce_to(DataType::Float).unwrap(),
            Value::Float(3.0)
        );
        assert!(Value::text("x").coerce_to(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce_to(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::text("hi").to_string(), "hi");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Date(4890).to_string(), "1983-05-23");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            "[a-zA-Z0-9 ]{0,20}".prop_map(Value::text),
            any::<bool>().prop_map(Value::Bool),
            (-1_000_000i32..1_000_000).prop_map(Value::Date),
        ]
    }

    proptest! {
        #[test]
        fn row_encoding_round_trips(vals in proptest::collection::vec(value_strategy(), 0..12)) {
            let bytes = encode_row(&vals);
            prop_assert_eq!(decode_row(&bytes).unwrap(), vals);
        }

        #[test]
        fn key_encoding_preserves_order_within_type(
            a in any::<i64>(), b in any::<i64>(),
            s in "[a-z]{0,12}", t in "[a-z]{0,12}",
        ) {
            let (mut ka, mut kb) = (Vec::new(), Vec::new());
            Value::Int(a).encode_key(&mut ka);
            Value::Int(b).encode_key(&mut kb);
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
            let (mut ks, mut kt) = (Vec::new(), Vec::new());
            Value::text(s.clone()).encode_key(&mut ks);
            Value::text(t.clone()).encode_key(&mut kt);
            prop_assert_eq!(s.cmp(&t), ks.cmp(&kt));
        }

        #[test]
        fn total_cmp_is_consistent_with_eq(a in value_strategy(), b in value_strategy()) {
            let ord = a.total_cmp(&b);
            prop_assert_eq!(ord == std::cmp::Ordering::Equal, a == b);
            prop_assert_eq!(ord.reverse(), b.total_cmp(&a));
        }
    }
}
