//! Dynamic values with SQLite-flavoured typing.
//!
//! The engine is dynamically typed like SQLite: every cell holds a [`Value`],
//! and comparison/arithmetic follow SQLite's affinity-light rules:
//!
//! * `NULL` compares as unknown (three-valued logic) but sorts first;
//! * integers and reals compare numerically across the two types;
//! * text compares byte-wise (memcmp order, which equals lexicographic
//!   order for ASCII data such as ours);
//! * across storage classes the order is `NULL < numbers < text`.
//!
//! # Zero-copy representation
//!
//! Text is shared behind a one-word [`ThinStr`], so cloning a [`Value`] is
//! always O(1) — a count bump for text, a copy for the scalar classes — and
//! a cell is 16 bytes (a tag and one word; pinned below). Whole rows are
//! shared the same way: [`Row`] is `Arc<[Value]>`, which lets scans, joins,
//! DISTINCT and compound operators pass rows around without deep-copying
//! `Vec<Value>` (the seed representation cloned every cell on every hop).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
pub use crate::thinstr::ThinStr;

/// A shared, immutable row. Cloning is a reference-count bump; the executor
/// builds a row once (at scan load or join emit time) and every downstream
/// operator shares it.
pub type Row = Arc<[Value]>;

/// Materialize an owned cell vector into a shareable [`Row`].
#[inline]
pub fn row(values: Vec<Value>) -> Row {
    values.into()
}

/// A single dynamically-typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit IEEE float.
    Real(f64),
    /// UTF-8 text, shared: clones share the same allocation.
    Text(ThinStr),
}

// A cell is a tag and one word; a later change must not regrow it.
const _: () = assert!(std::mem::size_of::<Value>() == 16);
const _: () = assert!(std::mem::size_of::<GroupKey>() == 16);

/// Conversion into shared text; implemented for the stringy types call
/// sites actually pass (`&str`, `String`, `&String`, and already-shared
/// [`ThinStr`] — the last is a free count bump).
pub trait IntoText {
    fn into_text(self) -> ThinStr;
}

impl IntoText for ThinStr {
    fn into_text(self) -> ThinStr {
        self
    }
}

impl IntoText for &str {
    fn into_text(self) -> ThinStr {
        self.into()
    }
}

impl IntoText for String {
    fn into_text(self) -> ThinStr {
        ThinStr::new(&self)
    }
}

impl IntoText for &String {
    fn into_text(self) -> ThinStr {
        ThinStr::new(self)
    }
}

/// The single definition of SQL text→number coercion (SQLite affinity):
/// surrounding whitespace is ignored, the rest must match Rust's full
/// `f64` grammar (so `"+5"`, `".5"`, `"5."`, `"1e309"` → `inf`, and the
/// case-insensitive `"inf"`/`"NaN"` spellings all parse; `"1_000"`,
/// `"0x10"`, and `""` do not). Every site that decides whether a string
/// is a number — [`Value::as_f64`], truthiness, negation, and the
/// columnar kernels' per-dictionary-entry LUTs — must route through this
/// helper so the row and vectorized paths can never disagree.
pub fn parse_text_f64(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok()
}

impl Value {
    /// Build a text value from anything stringy.
    pub fn text(s: impl IntoText) -> Self {
        Value::Text(s.into_text())
    }

    /// True iff the value is `NULL`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The SQL storage-class name, as `typeof()` would report it.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Integer(_) => "integer",
            Value::Real(_) => "real",
            Value::Text(_) => "text",
        }
    }

    /// Numeric view: integers and reals yield `Some(f64)`, text that parses
    /// as a number also yields `Some` (SQLite affinity), otherwise `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            Value::Text(s) => parse_text_f64(s),
            Value::Null => None,
        }
    }

    /// Integer view without rounding surprises: reals only convert when
    /// they are exactly integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            Value::Real(r) if r.fract() == 0.0 && r.is_finite() => Some(*r as i64),
            Value::Text(s) => s.trim().parse::<i64>().ok(),
            _ => None,
        }
    }

    /// Borrowed text view (`None` for non-text).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(&**s),
            _ => None,
        }
    }

    /// Shared text view (`None` for non-text); cloning the [`ThinStr`] is
    /// how callers keep a cell's text without copying it.
    pub fn as_shared_str(&self) -> Option<&ThinStr> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL truthiness: numbers are true iff non-zero; text is true iff it
    /// parses to a non-zero number; NULL is unknown (`None`).
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            other => other.as_f64().map(|v| v != 0.0),
        }
    }

    /// Render the value the way a result cell prints: NULL as empty string,
    /// reals with a trailing `.0` when integral (SQLite style).
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Integer(i) => i.to_string(),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 1e15 {
                    format!("{:.1}", r)
                } else {
                    r.to_string()
                }
            }
            Value::Text(s) => s.to_string(),
        }
    }

    /// Total order used by ORDER BY, GROUP BY and DISTINCT:
    /// `NULL < numeric < text`, numerics compared as f64, NaN last among reals.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
            (Text(_), _) => Ordering::Greater,
            (_, Text(_)) => Ordering::Less,
            (a, b) => {
                let (x, y) = (a.raw_num(), b.raw_num());
                x.partial_cmp(&y).unwrap_or_else(|| {
                    // Order NaNs after every other real so sorting is total.
                    match (x.is_nan(), y.is_nan()) {
                        (true, true) => Ordering::Equal,
                        (true, false) => Ordering::Greater,
                        (false, true) => Ordering::Less,
                        (false, false) => Ordering::Equal,
                    }
                })
            }
        }
    }

    /// Numeric value for the numeric storage classes only (no text parsing);
    /// callers guarantee `self` is Integer or Real.
    fn raw_num(&self) -> f64 {
        match self {
            Value::Integer(i) => *i as f64,
            Value::Real(r) => *r,
            _ => unreachable!("raw_num on non-numeric"),
        }
    }

    /// SQL `=` comparison with three-valued logic: `None` when either side
    /// is NULL. Integer/real compare numerically; text compares exactly;
    /// number-vs-text is false (distinct storage classes), matching SQLite.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Text(a), Text(b)) => Some(a == b),
            (Text(_), _) | (_, Text(_)) => Some(false),
            (a, b) => Some(a.raw_num() == b.raw_num()),
        }
    }

    /// SQL ordering comparison (`<`, `<=`, `>`, `>=`): `None` on NULL.
    /// Cross-class comparisons use the storage-class order, like SQLite.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.sort_cmp(other))
    }

    /// Key used for grouping / DISTINCT: collapses equal numerics across
    /// Integer/Real, keeps NULLs equal to each other.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Integer(i) => GroupKey::Num((*i as f64).to_bits()),
            Value::Real(r) => GroupKey::Num(real_key_bits(*r)),
            Value::Text(s) => GroupKey::Text(s.clone()),
        }
    }

    /// The cell as a key of [`crate::keyindex::Keys`], borrowed: `None`
    /// for NULL, otherwise equal exactly where [`Self::group_key`] is.
    #[inline]
    pub(crate) fn key_ref(&self) -> Option<KeyRef<'_>> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(KeyRef::Num((*i as f64).to_bits())),
            Value::Real(r) => Some(KeyRef::Num(real_key_bits(*r))),
            Value::Text(s) => Some(KeyRef::Text(s)),
        }
    }

    /// Add two values with SQL NULL propagation. Integer+Integer stays
    /// integer (checked overflow); any real operand promotes to real.
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Subtract with NULL propagation.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Multiply with NULL propagation.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Divide. Integer/integer performs integer division like SQLite;
    /// division by zero yields NULL (SQLite behaviour).
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self.as_int_like(), other.as_int_like()) {
            (Some(a), Some(b)) => {
                if b == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Integer(a.wrapping_div(b)))
                }
            }
            _ => {
                let (a, b) = self.both_f64(other, "/")?;
                if b == 0.0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Real(a / b))
                }
            }
        }
    }

    /// Modulo; NULL on zero divisor, NULL propagation.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self.as_int_like(), other.as_int_like()) {
            (Some(a), Some(b)) => {
                if b == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Integer(a.wrapping_rem(b)))
                }
            }
            _ => {
                let (a, b) = self.both_f64(other, "%")?;
                if b == 0.0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Real(a % b))
                }
            }
        }
    }

    /// Unary minus with NULL propagation.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Integer(i) => i
                .checked_neg()
                .map(Value::Integer)
                .ok_or_else(|| Error::Arithmetic("integer overflow in negation".into())),
            Value::Real(r) => Ok(Value::Real(-r)),
            Value::Text(s) => {
                let v = parse_text_f64(s)
                    .ok_or_else(|| Error::Type(format!("cannot negate text '{s}'")))?;
                Ok(Value::Real(-v))
            }
        }
    }

    /// Integer view used by the arithmetic fast path: only true integers
    /// (not integral reals, not numeric text) keep integer semantics.
    fn as_int_like(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    fn both_f64(&self, other: &Value, op: &str) -> Result<(f64, f64)> {
        let a = self
            .as_f64()
            .ok_or_else(|| Error::Type(format!("left operand of {op} is not numeric: {self}")))?;
        let b = other
            .as_f64()
            .ok_or_else(|| Error::Type(format!("right operand of {op} is not numeric: {other}")))?;
        Ok((a, b))
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &str,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        if let (Some(a), Some(b)) = (self.as_int_like(), other.as_int_like()) {
            return int_op(a, b)
                .map(Value::Integer)
                .ok_or_else(|| Error::Arithmetic(format!("integer overflow in {op}")));
        }
        let (a, b) = self.both_f64(other, op)?;
        Ok(Value::Real(float_op(a, b)))
    }
}

/// The [`GroupKey::Num`] bits of a real: `-0.0` normalized to `0.0` and
/// every NaN to one pattern, so grouping is consistent with `sort_cmp`
/// equality.
#[inline]
pub(crate) fn real_key_bits(r: f64) -> u64 {
    let r = if r == 0.0 { 0.0 } else { r };
    if r.is_nan() { f64::NAN.to_bits() } else { r.to_bits() }
}

/// Hashable grouping key with the same equality as [`Value::sort_cmp`]
/// treating NULLs as equal (GROUP BY semantics). Text keys share the
/// value's allocation, so building one never copies the string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    Null,
    Num(u64),
    Text(ThinStr),
}

/// A non-NULL key cell, borrowed: two cells are equal as keys exactly
/// when their [`GroupKey`]s are (numbers by their `GroupKey::Num` bits,
/// text by its bytes — one shared string without reading them — a number
/// never equal to text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyRef<'a> {
    Num(u64),
    Text(&'a ThinStr),
}

impl KeyRef<'_> {
    /// The key's `u64` word: a number's bits, a string's [`text_word`].
    /// Equal keys have equal words; unequal keys may share one, so a
    /// table keyed by words confirms each candidate with `==`.
    #[inline]
    pub(crate) fn word(self) -> u64 {
        match self {
            KeyRef::Num(bits) => bits,
            KeyRef::Text(s) => text_word(s),
        }
    }
}

/// The key word of a text cell: the workspace hasher over its bytes.
pub(crate) fn text_word(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// One expensive-UDF argument tuple, as a key of the statement's result
/// store: the evaluated argument vector itself, compared and hashed by
/// **exact identity** — storage class plus exact bits. Stricter than
/// [`GroupKey`], which coerces integers through `f64` for SQL grouping
/// equality: under that coercion `Integer(1)`/`Real(1.0)` (different
/// renderings, different UDF prompts) and distinct integers beyond 2^53
/// would share one cached UDF result. NaNs are one value (they all render
/// alike); `-0.0` and `0.0` are two (they render differently).
#[derive(Debug, Clone)]
pub struct UdfArgs(pub Vec<Value>);

/// The bits a real argument is identified by.
fn real_identity(r: f64) -> u64 {
    if r.is_nan() { f64::NAN.to_bits() } else { r.to_bits() }
}

impl Value {
    /// Whether two UDF arguments are one under [`UdfArgs`] identity.
    pub(crate) fn same_arg(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Integer(a), Value::Integer(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => real_identity(*a) == real_identity(*b),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }

    /// Feed this UDF argument's [`UdfArgs`] identity to `state`.
    pub(crate) fn hash_arg<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        match self {
            Value::Null => state.write_u8(0),
            Value::Integer(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Real(r) => {
                state.write_u8(2);
                state.write_u64(real_identity(*r));
            }
            Value::Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl PartialEq for UdfArgs {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.same_arg(b))
    }
}

impl Eq for UdfArgs {}

impl std::hash::Hash for UdfArgs {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            v.hash_arg(state);
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sort_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            other => write!(f, "{}", other.render()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Integer(v as i64)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        let n = Value::Null;
        let one = Value::Integer(1);
        assert!(n.add(&one).unwrap().is_null());
        assert!(one.sub(&n).unwrap().is_null());
        assert!(n.mul(&n).unwrap().is_null());
        assert!(n.div(&one).unwrap().is_null());
        assert!(n.neg().unwrap().is_null());
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let a = Value::Integer(7);
        let b = Value::Integer(2);
        assert_eq!(a.add(&b).unwrap(), Value::Integer(9));
        assert_eq!(a.div(&b).unwrap(), Value::Integer(3), "integer division truncates");
        assert_eq!(a.rem(&b).unwrap(), Value::Integer(1));
    }

    #[test]
    fn mixed_arithmetic_promotes_to_real() {
        let a = Value::Integer(7);
        let b = Value::Real(2.0);
        assert_eq!(a.div(&b).unwrap(), Value::Real(3.5));
        assert_eq!(a.add(&b).unwrap(), Value::Real(9.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        assert!(Value::Integer(1).div(&Value::Integer(0)).unwrap().is_null());
        assert!(Value::Real(1.0).div(&Value::Real(0.0)).unwrap().is_null());
        assert!(Value::Integer(1).rem(&Value::Integer(0)).unwrap().is_null());
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        assert!(Value::Integer(i64::MAX).add(&Value::Integer(1)).is_err());
        assert!(Value::Integer(i64::MIN).neg().is_err());
    }

    #[test]
    fn sql_eq_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_eq(&Value::Real(1.0)), Some(true));
        assert_eq!(Value::text("a").sql_eq(&Value::text("a")), Some(true));
        assert_eq!(Value::text("1").sql_eq(&Value::Integer(1)), Some(false), "no cross-class coercion in =");
    }

    #[test]
    fn sort_order_is_null_numbers_text() {
        let mut vals = [
            Value::text("apple"),
            Value::Integer(3),
            Value::Null,
            Value::Real(2.5),
            Value::text("Zebra"),
        ];
        vals.sort_by(|a, b| a.sort_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Real(2.5));
        assert_eq!(vals[2], Value::Integer(3));
        assert_eq!(vals[3], Value::text("Zebra"), "byte order: uppercase first");
        assert_eq!(vals[4], Value::text("apple"));
    }

    #[test]
    fn group_key_unifies_integer_and_real() {
        assert_eq!(Value::Integer(2).group_key(), Value::Real(2.0).group_key());
        assert_eq!(Value::Null.group_key(), Value::Null.group_key());
        assert_ne!(Value::Integer(2).group_key(), Value::text("2").group_key());
        assert_eq!(Value::Real(0.0).group_key(), Value::Real(-0.0).group_key());
    }

    #[test]
    fn truthiness_follows_sqlite() {
        assert_eq!(Value::Integer(0).truthiness(), Some(false));
        assert_eq!(Value::Integer(5).truthiness(), Some(true));
        assert_eq!(Value::Null.truthiness(), None);
        assert_eq!(Value::text("1").truthiness(), Some(true));
        assert_eq!(Value::text("abc").truthiness(), None, "non-numeric text is not a number");
    }

    #[test]
    fn render_matches_sqlite_conventions() {
        assert_eq!(Value::Real(3.0).render(), "3.0");
        assert_eq!(Value::Real(3.25).render(), "3.25");
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::Integer(-7).render(), "-7");
    }

    #[test]
    fn text_clone_is_an_interned_pointer_copy() {
        let a = Value::text("a string long enough that deep-copying it would show".repeat(4));
        let b = a.clone();
        match (&a, &b) {
            (Value::Text(x), Value::Text(y)) => {
                assert!(ThinStr::ptr_eq(x, y), "clone must share the allocation")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn row_clone_shares_cells() {
        let r: Row = row(vec![Value::text("hello"), Value::Integer(1)]);
        let s = r.clone();
        assert!(Arc::ptr_eq(&r, &s), "row clone is a refcount bump");
        assert_eq!(&r[..], &s[..]);
    }

    #[test]
    fn as_i64_only_converts_exact_reals() {
        assert_eq!(Value::Real(4.0).as_i64(), Some(4));
        assert_eq!(Value::Real(4.5).as_i64(), None);
        assert_eq!(Value::text(" 42 ").as_i64(), Some(42));
    }
}
