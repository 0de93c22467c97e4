//! Shorthand for building `serde_json::Value` trees by hand.

use serde_json::Value;

pub fn num(v: f64) -> Value {
    Value::F64(v)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn nums(xs: &[f64]) -> Value {
    Value::Seq(xs.iter().copied().map(num).collect())
}

/// One metric as the contract prints it: `{"value": …, "unit": …}`.
pub fn metric(value: f64, unit: &str) -> Value {
    obj(vec![("value", num(value)), ("unit", text(unit))])
}

pub fn compact(v: &Value) -> String {
    serde_json::to_string(v).expect("value trees always serialise")
}
