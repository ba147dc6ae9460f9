//! The dynamically-typed value model shared by the graph store and the
//! Cypher executor.
//!
//! `Value` mirrors the openCypher value space: null, booleans, 64-bit
//! integers, 64-bit floats, strings, lists and maps. Comparison and
//! arithmetic follow Cypher semantics where they matter for query results
//! (e.g. `null` propagates through arithmetic, integers and floats compare
//! numerically, ordering across disparate types is total so `ORDER BY` is
//! well-defined).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A dynamically typed property / query value.
///
/// Serialized untagged, so results and snapshots read as plain JSON
/// (`5`, `"IIJ"`, `[1, 2]`) rather than `{"Int": 5}`.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
#[serde(untagged)]
pub enum Value {
    /// Absence of a value. Propagates through most operations.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list of values.
    List(Vec<Value>),
    /// String-keyed map of values.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Cypher truthiness: only `Bool(true)` is true; `Null` is "unknown"
    /// and treated as not-true by filters.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Returns the integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns a float view of a numeric value (int or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the string payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the list payload if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the map payload if this is a `Map`.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Is this a numeric value (int or float)?
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// The Cypher type name of the value, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOLEAN",
            Value::Int(_) => "INTEGER",
            Value::Float(_) => "FLOAT",
            Value::Str(_) => "STRING",
            Value::List(_) => "LIST",
            Value::Map(_) => "MAP",
        }
    }

    /// Cypher equality: `null = anything` is null (here: `None`);
    /// ints and floats compare numerically.
    pub fn cypher_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Float(b)) => Some((*a as f64) == *b),
            (Value::Float(a), Value::Int(b)) => Some(*a == (*b as f64)),
            (a, b) => Some(a.strict_eq(b)),
        }
    }

    fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.strict_eq(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.strict_eq(vb))
            }
            _ => false,
        }
    }

    /// Cypher ordering comparison for `<`, `>` etc.: numeric across
    /// int/float, lexicographic for strings; incomparable type pairs and
    /// nulls yield `None`.
    pub fn cypher_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.cypher_cmp(y) {
                        Some(Ordering::Equal) => continue,
                        other => return other,
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => None,
        }
    }

    /// Total ordering used by `ORDER BY`: nulls sort last, then by a fixed
    /// type rank, then within-type. Always returns an ordering.
    pub fn order_key_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Map(_) => 0,
                Value::List(_) => 1,
                Value::Str(_) => 2,
                Value::Bool(_) => 3,
                Value::Int(_) | Value::Float(_) => 4,
                Value::Null => 5,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.order_key_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Map(a), Value::Map(b)) => {
                let mut ia = a.iter();
                let mut ib = b.iter();
                loop {
                    match (ia.next(), ib.next()) {
                        (None, None) => return Ordering::Equal,
                        (None, Some(_)) => return Ordering::Less,
                        (Some(_), None) => return Ordering::Greater,
                        (Some((ka, va)), Some((kb, vb))) => {
                            let c = ka.cmp(kb).then_with(|| va.order_key_cmp(vb));
                            if c != Ordering::Equal {
                                return c;
                            }
                        }
                    }
                }
            }
            (a, b) => {
                // Both numeric.
                let fa = a.as_f64().unwrap_or(f64::NAN);
                let fb = b.as_f64().unwrap_or(f64::NAN);
                fa.partial_cmp(&fb).unwrap_or(Ordering::Equal)
            }
        }
    }

    /// `+` with Cypher semantics: numeric addition, string and list
    /// concatenation; null propagates.
    pub fn add(&self, other: &Value) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
            (Value::Str(a), b) if b.is_numeric() => Ok(Value::Str(format!("{a}{b}"))),
            (a, Value::Str(b)) if a.is_numeric() => Ok(Value::Str(format!("{a}{b}"))),
            (Value::List(a), Value::List(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Ok(Value::List(out))
            }
            (Value::List(a), b) => {
                let mut out = a.clone();
                out.push(b.clone());
                Ok(Value::List(out))
            }
            (a, b) if a.is_numeric() && b.is_numeric() => {
                Ok(Value::Float(a.as_f64().unwrap() + b.as_f64().unwrap()))
            }
            (a, b) => Err(ValueError::type_mismatch("+", a, b)),
        }
    }

    /// `-` with null propagation.
    pub fn sub(&self, other: &Value) -> Result<Value, ValueError> {
        self.numeric_op(other, "-", |a, b| a.wrapping_sub(b), |a, b| a - b)
    }

    /// `*` with null propagation.
    pub fn mul(&self, other: &Value) -> Result<Value, ValueError> {
        self.numeric_op(other, "*", |a, b| a.wrapping_mul(b), |a, b| a * b)
    }

    /// `/`: integer division when both sides are ints, float otherwise.
    pub fn div(&self, other: &Value) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => checked_int(*a, *b, "/", i64::checked_div),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let denom = b.as_f64().unwrap();
                if denom == 0.0 {
                    Err(ValueError::DivisionByZero)
                } else {
                    Ok(Value::Float(a.as_f64().unwrap() / denom))
                }
            }
            (a, b) => Err(ValueError::type_mismatch("/", a, b)),
        }
    }

    /// `%` modulo.
    pub fn rem(&self, other: &Value) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => checked_int(*a, *b, "%", i64::checked_rem),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                Ok(Value::Float(a.as_f64().unwrap() % b.as_f64().unwrap()))
            }
            (a, b) => Err(ValueError::type_mismatch("%", a, b)),
        }
    }

    /// Unary negation.
    pub fn neg(&self) -> Result<Value, ValueError> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            v => Err(ValueError::TypeMismatch {
                op: "-".into(),
                detail: format!("cannot negate {}", v.type_name()),
            }),
        }
    }

    fn numeric_op(
        &self,
        other: &Value,
        op: &'static str,
        int_op: fn(i64, i64) -> i64,
        float_op: fn(f64, f64) -> f64,
    ) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(int_op(*a, *b))),
            (a, b) if a.is_numeric() && b.is_numeric() => Ok(Value::Float(float_op(
                a.as_f64().unwrap(),
                b.as_f64().unwrap(),
            ))),
            (a, b) => Err(ValueError::type_mismatch(op, a, b)),
        }
    }
}

/// Integer `/` or `%`: division by zero and the one overflowing case
/// (`i64::MIN` by `-1`) are errors, never panics.
fn checked_int(
    a: i64,
    b: i64,
    op: &str,
    f: fn(i64, i64) -> Option<i64>,
) -> Result<Value, ValueError> {
    if b == 0 {
        return Err(ValueError::DivisionByZero);
    }
    f(a, b)
        .map(Value::Int)
        .ok_or_else(|| ValueError::Overflow { op: op.to_string() })
}

/// Errors raised by value-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// Operands had incompatible types for the operator.
    TypeMismatch {
        /// Operator symbol.
        op: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Division or modulo by zero.
    DivisionByZero,
    /// The integer result does not fit in an `i64`.
    Overflow {
        /// Operator symbol.
        op: String,
    },
}

impl ValueError {
    fn type_mismatch(op: &str, a: &Value, b: &Value) -> Self {
        ValueError::TypeMismatch {
            op: op.to_string(),
            detail: format!("{} {} {}", a.type_name(), op, b.type_name()),
        }
    }
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::TypeMismatch { op, detail } => {
                write!(f, "type mismatch for operator '{op}': {detail}")
            }
            ValueError::DivisionByZero => write!(f, "division by zero"),
            ValueError::Overflow { op } => write!(f, "integer overflow for operator '{op}'"),
        }
    }
}

impl std::error::Error for ValueError {}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality (nulls equal each other) — used by tests,
        // grouping keys and DISTINCT, not by Cypher `=` (see `cypher_eq`).
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (a, b) => a.strict_eq(b),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "\"{s}\"")?,
                        other => write!(f, "{other}")?,
                    }
                }
                write!(f, "]")
            }
            Value::Map(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "{k}: \"{s}\"")?,
                        other => write!(f, "{k}: {other}")?,
                    }
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

/// A hashable, orderable normalization of a `Value`, suitable as an index
/// key or grouping key. Floats are keyed by their bit pattern after
/// normalizing `-0.0` to `0.0`; whole floats that fit in `i64` are keyed as
/// integers so `1` and `1.0` land in the same group (matching `cypher_eq`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ValueKey {
    /// Null key.
    Null,
    /// Boolean key.
    Bool(bool),
    /// Integer key (also used for whole floats).
    Int(i64),
    /// Float bit pattern for non-integral floats.
    FloatBits(u64),
    /// String key.
    Str(String),
    /// List key.
    List(Vec<ValueKey>),
    /// Map key.
    Map(Vec<(String, ValueKey)>),
}

impl ValueKey {
    /// Builds the key for a value.
    pub fn of(v: &Value) -> ValueKey {
        match v {
            Value::Null => ValueKey::Null,
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => {
                let f = if *f == 0.0 { 0.0 } else { *f };
                if f.fract() == 0.0 && f.abs() < (i64::MAX as f64) {
                    ValueKey::Int(f as i64)
                } else {
                    ValueKey::FloatBits(f.to_bits())
                }
            }
            Value::Str(s) => ValueKey::Str(s.clone()),
            Value::List(items) => ValueKey::List(items.iter().map(ValueKey::of).collect()),
            Value::Map(m) => ValueKey::Map(
                m.iter()
                    .map(|(k, v)| (k.clone(), ValueKey::of(v)))
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_arithmetic() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).sub(&Value::Null).unwrap().is_null());
        assert!(Value::Null.mul(&Value::Null).unwrap().is_null());
    }

    #[test]
    fn int_float_mixed_arithmetic() {
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(
            Value::Float(7.0).div(&Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(
            Value::Int(1).div(&Value::Int(0)),
            Err(ValueError::DivisionByZero)
        );
        assert_eq!(
            Value::Int(1).rem(&Value::Int(0)),
            Err(ValueError::DivisionByZero)
        );
    }

    #[test]
    fn min_int_by_minus_one_overflows_instead_of_panicking() {
        let overflow = |op: &str| Err(ValueError::Overflow { op: op.to_string() });
        assert_eq!(Value::Int(i64::MIN).div(&Value::Int(-1)), overflow("/"));
        assert_eq!(Value::Int(i64::MIN).rem(&Value::Int(-1)), overflow("%"));
        assert_eq!(
            Value::Int(i64::MIN).div(&Value::Int(1)).unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            Value::Int(i64::MIN + 1).div(&Value::Int(-1)).unwrap(),
            Value::Int(i64::MAX)
        );
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(
            Value::from("AS").add(&Value::Int(2497)).unwrap(),
            Value::from("AS2497")
        );
    }

    #[test]
    fn list_concatenation_and_append() {
        let l = Value::from(vec![1i64, 2]);
        assert_eq!(
            l.add(&Value::from(vec![3i64])).unwrap(),
            Value::from(vec![1i64, 2, 3])
        );
        assert_eq!(
            l.add(&Value::Int(3)).unwrap(),
            Value::from(vec![1i64, 2, 3])
        );
    }

    #[test]
    fn cypher_eq_numeric_coercion() {
        assert_eq!(Value::Int(1).cypher_eq(&Value::Float(1.0)), Some(true));
        assert_eq!(Value::Int(1).cypher_eq(&Value::Float(1.5)), Some(false));
        assert_eq!(Value::Null.cypher_eq(&Value::Int(1)), None);
    }

    #[test]
    fn cypher_cmp_incomparable_types() {
        assert_eq!(Value::Int(1).cypher_cmp(&Value::from("a")), None);
        assert_eq!(
            Value::Int(1).cypher_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::from("a").cypher_cmp(&Value::from("b")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn order_key_total_order_nulls_last() {
        let mut vals = [
            Value::Null,
            Value::Int(3),
            Value::from("x"),
            Value::Float(1.5),
        ];
        vals.sort_by(|a, b| a.order_key_cmp(b));
        assert_eq!(vals.last().unwrap(), &Value::Null);
        assert_eq!(vals[0], Value::from("x"));
    }

    #[test]
    fn value_key_unifies_int_and_whole_float() {
        assert_eq!(
            ValueKey::of(&Value::Int(5)),
            ValueKey::of(&Value::Float(5.0))
        );
        assert_ne!(
            ValueKey::of(&Value::Int(5)),
            ValueKey::of(&Value::Float(5.5))
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::from(vec!["a", "b"]).to_string(), "[\"a\", \"b\"]");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Bool(false).is_true());
        assert!(!Value::Null.is_true());
        assert!(!Value::Int(1).is_true());
    }
}
