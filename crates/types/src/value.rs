//! The dynamically-typed value model shared by the storage engine and the
//! middleware.
//!
//! Values deliberately stay small: the paper's workloads manipulate counters
//! (free tickets, free cars) and prices, so integers and floats carry the
//! experiments, while text/bool/null round out what a catalogued table
//! needs. Arithmetic is *checked*: overflow and division by zero surface as
//! [`PstmError::Arithmetic`] instead of panicking inside a scheduler.

use crate::error::{PstmError, PstmResult};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of a [`Value`], used by schemas and type checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueKind {
    /// SQL NULL / absent.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 text.
    Text,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::Null => "NULL",
            ValueKind::Bool => "BOOL",
            ValueKind::Int => "INT",
            ValueKind::Float => "FLOAT",
            ValueKind::Text => "TEXT",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed database value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float. NaN is rejected at construction sites that
    /// perform arithmetic, so `PartialEq` is adequate in practice.
    Float(f64),
    /// UTF-8 text.
    Text(String),
}

/// `Null`: what an unused inline slot holds.
impl Default for Value {
    fn default() -> Self {
        Value::Null
    }
}

impl Value {
    /// The kind of this value.
    #[must_use]
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Text(_) => ValueKind::Text,
        }
    }

    /// Returns the integer payload, or a type error.
    pub fn as_int(&self) -> PstmResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(PstmError::TypeMismatch { expected: ValueKind::Int, found: other.kind() }),
        }
    }

    /// Returns the float payload, widening integers, or a type error.
    pub fn as_f64(&self) -> PstmResult<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => {
                Err(PstmError::TypeMismatch { expected: ValueKind::Float, found: other.kind() })
            }
        }
    }

    /// Returns the boolean payload, or a type error.
    pub fn as_bool(&self) -> PstmResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => {
                Err(PstmError::TypeMismatch { expected: ValueKind::Bool, found: other.kind() })
            }
        }
    }

    /// Returns the text payload, or a type error.
    pub fn as_text(&self) -> PstmResult<&str> {
        match self {
            Value::Text(v) => Ok(v),
            other => {
                Err(PstmError::TypeMismatch { expected: ValueKind::Text, found: other.kind() })
            }
        }
    }

    /// Whether this value is NULL.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True when the value is numeric (int or float).
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Checked numeric addition. `Int + Int` stays integral; any float
    /// operand promotes the result to float.
    pub fn checked_add(&self, rhs: &Value) -> PstmResult<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => a
                .checked_add(*b)
                .map(Value::Int)
                .ok_or_else(|| PstmError::arithmetic(format!("integer overflow: {a} + {b}"))),
            _ => numeric_float_op(self, rhs, "+", |a, b| Ok(a + b)),
        }
    }

    /// Checked numeric subtraction.
    pub fn checked_sub(&self, rhs: &Value) -> PstmResult<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => a
                .checked_sub(*b)
                .map(Value::Int)
                .ok_or_else(|| PstmError::arithmetic(format!("integer overflow: {a} - {b}"))),
            _ => numeric_float_op(self, rhs, "-", |a, b| Ok(a - b)),
        }
    }

    /// Checked numeric multiplication.
    pub fn checked_mul(&self, rhs: &Value) -> PstmResult<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => a
                .checked_mul(*b)
                .map(Value::Int)
                .ok_or_else(|| PstmError::arithmetic(format!("integer overflow: {a} * {b}"))),
            _ => numeric_float_op(self, rhs, "*", |a, b| Ok(a * b)),
        }
    }

    /// Checked numeric division. Integer division keeps integral semantics
    /// only when exact; otherwise the result is promoted to float, because
    /// the reconciliation algorithm for multiplicative updates (paper eq. 2)
    /// divides by the snapshot value and must not truncate.
    pub fn checked_div(&self, rhs: &Value) -> PstmResult<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    return Err(PstmError::arithmetic(format!("division by zero: {a} / 0")));
                }
                if a % b == 0 {
                    Ok(Value::Int(a / b))
                } else {
                    Ok(Value::Float(*a as f64 / *b as f64))
                }
            }
            _ => numeric_float_op(self, rhs, "/", |a, b| {
                if b == 0.0 {
                    Err(PstmError::arithmetic(format!("division by zero: {a} / 0")))
                } else {
                    Ok(a / b)
                }
            }),
        }
    }

    /// Checked fused multiply-divide: `self * mul / div`, evaluated as one
    /// rational operation. For all-integer operands the product is formed in
    /// 128-bit space, so eq. 2 reconciliations (`(temp / read) * permanent`)
    /// stay exact whenever the result is an integer — even when the
    /// intermediate ratio `temp / read` is not. An inexact integer result
    /// promotes to float (matching [`Value::checked_div`]); any float operand
    /// evaluates in float space.
    pub fn checked_mul_div(&self, mul: &Value, div: &Value) -> PstmResult<Value> {
        match (self, mul, div) {
            (Value::Int(a), Value::Int(b), Value::Int(d)) => {
                if *d == 0 {
                    return Err(PstmError::arithmetic(format!("division by zero: {a} * {b} / 0")));
                }
                let num = i128::from(*a) * i128::from(*b);
                let d = i128::from(*d);
                if num % d == 0 {
                    i64::try_from(num / d).map(Value::Int).map_err(|_| {
                        PstmError::arithmetic(format!("integer overflow: {num} / {d}"))
                    })
                } else {
                    let r = num as f64 / d as f64;
                    if r.is_finite() {
                        Ok(Value::Float(r))
                    } else {
                        Err(PstmError::arithmetic(format!("non-finite result: {num} / {d}")))
                    }
                }
            }
            _ => {
                let (a, b, d) = (self.as_f64()?, mul.as_f64()?, div.as_f64()?);
                if d == 0.0 {
                    return Err(PstmError::arithmetic(format!("division by zero: {a} * {b} / 0")));
                }
                let r = a * b / d;
                if r.is_finite() {
                    Ok(Value::Float(r))
                } else {
                    Err(PstmError::arithmetic(format!("non-finite result: {a} * {b} / {d}")))
                }
            }
        }
    }

    /// Total ordering usable for index keys: NULL < Bool < Int/Float < Text,
    /// with numeric values compared numerically across Int/Float.
    #[must_use]
    pub fn key_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

fn numeric_float_op(
    lhs: &Value,
    rhs: &Value,
    op: &str,
    f: impl FnOnce(f64, f64) -> PstmResult<f64>,
) -> PstmResult<Value> {
    let (a, b) = (lhs.as_f64()?, rhs.as_f64()?);
    let r = f(a, b)?;
    if r.is_finite() {
        Ok(Value::Float(r))
    } else {
        Err(PstmError::arithmetic(format!("non-finite result: {a} {op} {b}")))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "'{v}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic_is_exact() {
        let a = Value::Int(100);
        assert_eq!(a.checked_add(&Value::Int(4)).unwrap(), Value::Int(104));
        assert_eq!(a.checked_sub(&Value::Int(1)).unwrap(), Value::Int(99));
        assert_eq!(a.checked_mul(&Value::Int(2)).unwrap(), Value::Int(200));
        assert_eq!(a.checked_div(&Value::Int(4)).unwrap(), Value::Int(25));
    }

    #[test]
    fn inexact_int_division_promotes_to_float() {
        let v = Value::Int(5).checked_div(&Value::Int(2)).unwrap();
        assert_eq!(v, Value::Float(2.5));
    }

    #[test]
    fn mul_div_is_exact_even_when_the_ratio_is_not() {
        // 50 / 100 is inexact, but 50 * 300 / 100 is the integer 150:
        // the fused form must not drift into float space (eq. 2).
        let v = Value::Int(50).checked_mul_div(&Value::Int(300), &Value::Int(100)).unwrap();
        assert_eq!(v, Value::Int(150));
        // Intermediate products beyond i64 still reduce exactly via i128.
        let big = Value::Int(i64::MAX / 3);
        let v = big.checked_mul_div(&Value::Int(6), &Value::Int(2)).unwrap();
        assert_eq!(v, Value::Int((i64::MAX / 3) * 3));
    }

    #[test]
    fn mul_div_inexact_result_promotes_and_zero_divisor_errors() {
        let v = Value::Int(5).checked_mul_div(&Value::Int(3), &Value::Int(2)).unwrap();
        assert_eq!(v, Value::Float(7.5));
        assert!(Value::Int(5).checked_mul_div(&Value::Int(3), &Value::Int(0)).is_err());
        assert!(Value::Float(5.0).checked_mul_div(&Value::Int(3), &Value::Float(0.0)).is_err());
        let v = Value::Float(5.0).checked_mul_div(&Value::Int(3), &Value::Int(2)).unwrap();
        assert_eq!(v, Value::Float(7.5));
    }

    #[test]
    fn mul_div_overflowing_integer_result_is_an_error() {
        let err = Value::Int(i64::MAX).checked_mul_div(&Value::Int(4), &Value::Int(2)).unwrap_err();
        assert!(matches!(err, PstmError::Arithmetic(_)));
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let max = Value::Int(i64::MAX);
        let err = max.checked_add(&Value::Int(1)).unwrap_err();
        assert!(matches!(err, PstmError::Arithmetic(_)));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(Value::Int(1).checked_div(&Value::Int(0)).is_err());
        assert!(Value::Float(1.0).checked_div(&Value::Float(0.0)).is_err());
    }

    #[test]
    fn mixed_int_float_promotes() {
        let v = Value::Int(3).checked_add(&Value::Float(0.5)).unwrap();
        assert_eq!(v, Value::Float(3.5));
    }

    #[test]
    fn non_numeric_arithmetic_is_a_type_error() {
        let err = Value::Text("x".into()).checked_add(&Value::Int(1)).unwrap_err();
        assert!(matches!(err, PstmError::TypeMismatch { .. }));
    }

    #[test]
    fn key_cmp_totally_orders_mixed_values() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Null.key_cmp(&Value::Bool(false)), Less);
        assert_eq!(Value::Int(2).key_cmp(&Value::Float(2.5)), Less);
        assert_eq!(Value::Float(2.0).key_cmp(&Value::Int(2)), Equal);
        assert_eq!(Value::Text("b".into()).key_cmp(&Value::Text("a".into())), Greater);
        assert_eq!(Value::Int(1).key_cmp(&Value::Text("a".into())), Less);
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(9).as_int().unwrap(), 9);
        assert!(Value::Int(9).as_text().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::Int(2).as_f64().unwrap(), 2.0);
    }

    #[test]
    fn display_is_sql_ish() {
        assert_eq!(Value::Text("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(7).to_string(), "7");
    }
}
